package tree

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// The wire format is a small stable JSON schema so instances can be
// generated by cmd/hbngen, stored, and replayed by cmd/hbnsolve.

type jsonNode struct {
	ID        int32  `json:"id"`
	Kind      string `json:"kind"` // "processor" | "bus"
	Name      string `json:"name,omitempty"`
	Bandwidth int64  `json:"bandwidth,omitempty"` // buses only
}

type jsonEdge struct {
	U         int32 `json:"u"`
	V         int32 `json:"v"`
	Bandwidth int64 `json:"bandwidth"`
}

type jsonTree struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

// Encode writes the tree as JSON: the bytes JSON returns.
func Encode(w io.Writer, t *Tree) error {
	b, err := t.JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// JSON returns the tree's wire form, indented JSON ending in a newline.
// The tree is immutable, so it is encoded once, on first use, and every
// later call (every snapshot image of a cluster, for one) returns the same
// slice, which callers must not modify.
func (t *Tree) JSON() ([]byte, error) {
	t.jsonOnce.Do(func() {
		jt := jsonTree{
			Nodes: make([]jsonNode, t.Len()),
			Edges: make([]jsonEdge, t.NumEdges()),
		}
		for v := 0; v < t.Len(); v++ {
			id := NodeID(v)
			jn := jsonNode{ID: int32(v), Kind: t.Kind(id).String(), Name: t.nodes[v].name}
			if t.Kind(id) == Bus {
				jn.Bandwidth = t.NodeBandwidth(id)
			}
			jt.Nodes[v] = jn
		}
		for e := 0; e < t.NumEdges(); e++ {
			u, v := t.Endpoints(EdgeID(e))
			jt.Edges[e] = jsonEdge{U: int32(u), V: int32(v), Bandwidth: t.EdgeBandwidth(EdgeID(e))}
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		t.jsonErr = enc.Encode(jt)
		t.json = buf.Bytes()
	})
	return t.json, t.jsonErr
}

// Decode reads a tree from the JSON produced by Encode. Node IDs must be
// dense and in order (the format Encode emits).
func Decode(r io.Reader) (*Tree, error) {
	var jt jsonTree
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("tree: decode: %w", err)
	}
	b := NewBuilder()
	for i, jn := range jt.Nodes {
		if int(jn.ID) != i {
			return nil, fmt.Errorf("tree: decode: node IDs must be dense and ordered; got %d at index %d", jn.ID, i)
		}
		switch jn.Kind {
		case "processor":
			b.AddProcessor(jn.Name)
		case "bus":
			bw := jn.Bandwidth
			if bw == 0 {
				bw = 1
			}
			b.AddBus(jn.Name, bw)
		default:
			return nil, fmt.Errorf("tree: decode: unknown node kind %q", jn.Kind)
		}
	}
	for _, je := range jt.Edges {
		b.Connect(NodeID(je.U), NodeID(je.V), je.Bandwidth)
	}
	return b.Build()
}

package obs

// Registry bundles the telemetry of one serving process: per-shard
// padded counters, one cluster-global counter block, the fixed set of
// latency histograms, and the flight recorder. Hot paths hold direct
// pointers into the registry (a shard's *Block, a *Histogram), so
// recording is always a concrete call on an atomic word — no interface
// dispatch, no map lookups, no allocation.
type Registry struct {
	// Shards holds one padded counter block per serving shard.
	Shards *PerShard
	// Global holds cluster-wide counters (drift fires, sheds,
	// retries) that have no per-shard attribution.
	Global Block

	IngestBatch Histogram // Cluster.Ingest serving time, before any epoch work
	// EpochPass is the duration of one epoch pass: one observation per
	// adopted pass (and reconfiguration), the sum of its slices when it
	// was spread over several Ingest calls.
	EpochPass Histogram
	// EpochStall is the epoch work one Ingest call ran — a slice of a
	// pass, or a whole inline pass — observed once per call that ran any.
	// It is the stall a pass adds to the call's latency.
	EpochStall    Histogram
	ReconfigStall Histogram // per-shard ingest stall during reconfiguration
	SnapshotCut   Histogram // snapshot cut stall (ingest paused)
	Handoff       Histogram // live handoff phase durations
	// AdmitWait is the daemon's per-batch admission wait: the clock
	// starts when the batch is admitted and stops when it acquires the
	// apply lock. Every admitted batch that reaches the lock is counted,
	// including those that then expire.
	AdmitWait Histogram
	// Apply is the daemon's per-batch apply time: the clock starts when
	// the batch acquires the apply lock, before its deadline check, and
	// stops when Cluster.Ingest returns, before the tail append. Expired
	// batches are not counted, and the admission wait is not included.
	Apply     Histogram
	RoundTrip Histogram // client-observed request round-trip latency

	// Flight is the structural-event flight recorder.
	Flight *Recorder
}

// NewRegistry returns a registry for n shards whose flight recorder
// keeps the most recent flightCap events.
func NewRegistry(n, flightCap int) *Registry {
	return &Registry{
		Shards: NewPerShard(n),
		Flight: NewRecorder(flightCap),
	}
}

// NamedHist pairs a histogram with its export name.
type NamedHist struct {
	Name string
	Hist *Histogram
}

// Hists returns the registry's histograms with their export names.
// The slice is freshly allocated; scrape-path only.
func (r *Registry) Hists() []NamedHist {
	return []NamedHist{
		{"ingest_batch", &r.IngestBatch},
		{"epoch_pass", &r.EpochPass},
		{"epoch_stall", &r.EpochStall},
		{"reconfig_stall", &r.ReconfigStall},
		{"snapshot_cut", &r.SnapshotCut},
		{"handoff", &r.Handoff},
		{"admit_wait", &r.AdmitWait},
		{"apply", &r.Apply},
		{"round_trip", &r.RoundTrip},
	}
}

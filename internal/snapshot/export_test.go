package snapshot

// WithStateFlags exposes withStateFlags to the external restore test.
var WithStateFlags = withStateFlags

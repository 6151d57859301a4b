package snapshot

// WithStateFlags and WithDecaySlot expose the image rewriters to the
// external restore tests.
var (
	WithStateFlags = withStateFlags
	WithDecaySlot  = withDecaySlot
)

package vm

// teeSink fans the dynamic stream out to two block sinks.
type teeSink struct {
	a, b BlockSink
}

// Tee returns a BlockSink that delivers every event to both a and b — the
// hook that lets a recorder (internal/tracestream) capture the stream of
// the same run that drives the simulator, with no second interpretation.
// When either side is nil the other is returned directly, so the fan-out
// cost is only paid when both are present. Batch slices are reused by the
// machine, so neither side may retain them (the BlockSink contract).
func Tee(a, b BlockSink) BlockSink {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &teeSink{a: a, b: b}
}

// BlockBatch implements BlockSink.
//
//lint:hotpath fan-out on the batched event path
func (t *teeSink) BlockBatch(events []BlockEvent) {
	t.a.BlockBatch(events)
	t.b.BlockBatch(events)
}

package netproto

// OpSpec is the table entry of one wire op: the facts about it that the
// daemon, the router, the client library and the binary codec read.
// Every Op* constant has exactly one entry in the table.
type OpSpec struct {
	Op string
	// Stream marks ops answered with per-file frames ending in a
	// terminal frame (Done, or an error without a file).
	Stream bool
	// Route is the zero value of the body type that names the op's
	// context, which the router hashes to pick the owning daemon. Nil
	// for ops that carry no context.
	Route any
	// Replay marks ops a reconnecting client may re-issue: repeating
	// them converges to the same daemon state.
	Replay bool
	// Opcode is the op's binary-codec opcode; 0 for ops that always
	// travel as JSON.
	Opcode byte
	// Timed ops get their own histogram in the daemon's per-op service
	// times; the rest share "other".
	Timed bool
}

// opTable holds one entry per op. The timed ops come first, in the
// order the stats frame lists their latencies.
var opTable = []OpSpec{
	{Op: OpOpen, Route: FileBody{}, Replay: true, Opcode: binOpen, Timed: true},
	{Op: OpWait, Stream: true, Route: FileBody{}, Replay: true, Opcode: binWait, Timed: true},
	{Op: OpRelease, Route: FileBody{}, Opcode: binRelease, Timed: true},
	{Op: OpAcquire, Stream: true, Route: FilesBody{}, Opcode: binAcquire, Timed: true},
	{Op: OpEstWait, Route: FileBody{}, Replay: true, Opcode: binEstWait, Timed: true},
	{Op: OpPrefetch, Route: FilesBody{}, Replay: true, Opcode: binPrefetch, Timed: true},
	{Op: OpSubscribe, Stream: true, Route: FilesBody{}, Opcode: binSubscribe, Timed: true},
	{Op: OpFedWatch, Stream: true, Route: FilesBody{}, Timed: true},
	{Op: OpStats, Route: CtxBody{}, Replay: true, Timed: true},
	{Op: OpPing, Replay: true, Opcode: binPing, Timed: true},

	{Op: OpHello},
	{Op: OpContexts, Replay: true},
	{Op: OpContextInfo, Route: CtxBody{}, Replay: true},
	{Op: OpBitrep, Route: FileBody{}, Replay: true, Opcode: binBitrep},
	{Op: OpRegSum, Route: ChecksumBody{}},
	{Op: OpRescan, Route: CtxBody{}, Replay: true},
	{Op: OpUnsubscribe, Opcode: binUnsubscribe},
	{Op: OpSchedGet, Replay: true},
	{Op: OpSchedSet},
	{Op: OpCachePolicySet, Route: CachePolicyBody{}},
	{Op: OpCtxRegister, Route: CtxRegisterBody{}},
	{Op: OpCtxDeregister, Route: CtxBody{}},
	{Op: OpDrain, Route: CtxBody{}},
	{Op: OpResume, Route: CtxBody{}},
	{Op: OpQuarantineReset, Route: CtxBody{}},
	{Op: OpPeers},
	{Op: OpAutoscaleReport},
	{Op: OpAutoscaleStatus},
}

var opIndex = func() map[string]OpSpec {
	m := make(map[string]OpSpec, len(opTable))
	for _, s := range opTable {
		m[s.Op] = s
	}
	return m
}()

// Spec returns op's table entry; an unknown op gets the zero OpSpec
// (unary, no context, not replayable, JSON-only, untimed).
func Spec(op string) OpSpec { return opIndex[op] }

// TimedOps lists the ops with their own latency histogram, in table
// order.
func TimedOps() []string {
	var ops []string
	for _, s := range opTable {
		if s.Timed {
			ops = append(ops, s.Op)
		}
	}
	return ops
}

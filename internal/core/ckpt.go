package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cc"
	"repro/internal/ckpt"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Checkpoint/restore for whole runs. A Snapshot captures everything the
// scenario cannot rebuild: the kernel clock/sequence/pending events,
// every packet in custody, the fabric's queue/credit/link state, the CC
// backend's tables, each generator's cursors and RNG position, the
// fault injector's bookkeeping and drop streams, and the metrics
// warmup snapshot. Restore re-runs Build from the stored scenario —
// recreating topology, wiring, action bindings and every build-time RNG
// draw deterministically — then overlays that mutable state, so the
// continuation is byte-identical to never having stopped (the
// checkpoint differential tests pin this against KernelSignature).

// Snapshot captures the instance's complete mutable state. The
// simulator must be between events (never call from inside a running
// event handler's stack via a hook).
func (in *Instance) Snapshot() (*ckpt.Snapshot, error) {
	scen, err := json.Marshal(&in.Scenario)
	if err != nil {
		return nil, fmt.Errorf("core: encoding scenario: %w", err)
	}
	simr := in.Net.Sim()
	tab := ckpt.NewPacketTable()
	fabBlob, err := json.Marshal(in.Net.ExportState(tab))
	if err != nil {
		return nil, fmt.Errorf("core: encoding fabric state: %w", err)
	}
	snap := &ckpt.Snapshot{
		Version:  ckpt.Version,
		Scenario: scen,
		Kernel:   simr.ExportKernel(),
		Fabric:   fabBlob,
	}
	if in.Backend != nil {
		snap.Backend = in.Backend.Name()
		if cp, ok := in.Backend.(cc.Checkpointable); ok {
			blob, err := cp.ExportState()
			if err != nil {
				return nil, fmt.Errorf("core: backend %s: %w", snap.Backend, err)
			}
			snap.CC = blob
		}
	}
	snap.Traffic = make([]json.RawMessage, len(in.sources))
	for i, gen := range in.sources {
		if gen == nil {
			continue // marshals as null: the node is idle by scenario
		}
		blob, err := gen.ExportState(tab)
		if err != nil {
			return nil, fmt.Errorf("core: generator %d: %w", i, err)
		}
		snap.Traffic[i] = blob
	}
	if in.injector != nil {
		if snap.Fault, err = in.injector.ExportState(); err != nil {
			return nil, fmt.Errorf("core: fault injector: %w", err)
		}
	}
	if snap.Metrics, err = in.collector.ExportState(); err != nil {
		return nil, fmt.Errorf("core: metrics collector: %w", err)
	}

	codecs := in.codecs(in.Net.Codec(tab))
	for _, e := range simr.PendingEvents() {
		rec, err := encodeAction(codecs, e.Action())
		if err != nil {
			return nil, err
		}
		rec.T = int64(e.Time())
		rec.Seq = e.Seq()
		snap.Events = append(snap.Events, rec)
	}
	snap.Pkts = tab.Records()
	if in.dig != nil {
		sum, n := in.dig.State()
		snap.Digest = &ckpt.DigestState{Sum: sum, Records: n}
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	return snap, nil
}

// actionCodec maps one layer's pending event actions to checkpoint
// records and back; ok is false for actions and kinds the layer does
// not own.
type actionCodec interface {
	EncodeAction(a sim.Action) (rec ckpt.EventRecord, ok bool)
	DecodeAction(rec ckpt.EventRecord) (act sim.Action, attach func(*sim.Event), ok bool, err error)
}

// codecs lists the layers that schedule events, the fabric's first.
func (in *Instance) codecs(fc *fabric.Codec) []actionCodec {
	out := []actionCodec{fc, in.collector}
	if cp, ok := in.Backend.(cc.Checkpointable); ok {
		out = append(out, cp)
	}
	if in.injector != nil {
		out = append(out, in.injector)
	}
	return out
}

// encodeAction routes a pending action to the codec that owns it.
func encodeAction(codecs []actionCodec, a sim.Action) (ckpt.EventRecord, error) {
	for _, c := range codecs {
		if rec, ok := c.EncodeAction(a); ok {
			return rec, nil
		}
	}
	return ckpt.EventRecord{}, fmt.Errorf(
		"core: pending event %T has no checkpoint codec (instrumentation that schedules its own events cannot be checkpointed)", a)
}

// decodeAction routes a record to the codec that owns its kind.
func decodeAction(codecs []actionCodec, rec ckpt.EventRecord) (sim.Action, func(*sim.Event), error) {
	for _, c := range codecs {
		if act, attach, ok, err := c.DecodeAction(rec); ok || err != nil {
			return act, attach, err
		}
	}
	return nil, nil, fmt.Errorf("unknown event kind %q", rec.Kind)
}

// Checkpoint writes the instance's full state to w in the versioned,
// CRC-protected envelope format.
func (in *Instance) Checkpoint(w io.Writer) error {
	snap, err := in.Snapshot()
	if err != nil {
		return err
	}
	return ckpt.Encode(w, snap)
}

// AttachDigest subscribes (once) an order-sensitive digest over the
// run's full event stream and returns it. Snapshot records the digest's
// position, so a restored continuation's digest equals an uninterrupted
// run's — the acceptance oracle of checkpoint/restore.
func (in *Instance) AttachDigest() *obs.Digest {
	if in.dig == nil {
		in.dig = obs.NewDigest()
		in.bus().Subscribe(in.dig)
	}
	return in.dig
}

// Restore reads a checkpoint envelope and rebuilds the run it captured,
// ready for Execute (which continues from the snapshot instant).
func Restore(r io.Reader) (*Instance, error) {
	snap, err := ckpt.Decode(r)
	if err != nil {
		return nil, err
	}
	return RestoreSnapshot(snap)
}

// RestoreFile restores from a checkpoint file (or the newest checkpoint
// under a directory).
func RestoreFile(path string) (*Instance, error) {
	file, err := ckpt.Latest(path)
	if err != nil {
		return nil, err
	}
	snap, err := ckpt.Load(file)
	if err != nil {
		return nil, err
	}
	return RestoreSnapshot(snap)
}

// RestoreSnapshot rebuilds a run from a validated snapshot: Build from
// the stored scenario, then overlay every piece of mutable state and
// re-insert the pending events in (time, seq) order.
func RestoreSnapshot(snap *ckpt.Snapshot) (*Instance, error) {
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	var s Scenario
	if err := json.Unmarshal(snap.Scenario, &s); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint scenario: %w", err)
	}
	in, err := Build(s)
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding checkpoint scenario: %w", err)
	}
	var name string
	if in.Backend != nil {
		name = in.Backend.Name()
	}
	if snap.Backend != name {
		return nil, fmt.Errorf("core: checkpoint backend %q, scenario builds %q", snap.Backend, name)
	}

	// Kernel scalars first: the fabric judges its reserved keys against
	// the snapshot's clock and sequence counter.
	simr := in.Net.Sim()
	simr.BeginRestore(snap.Kernel)
	tab := ckpt.RestoreTable(snap.Pkts)
	var fst fabric.State
	if err := json.Unmarshal(snap.Fabric, &fst); err != nil {
		return nil, fmt.Errorf("core: decoding fabric state: %w", err)
	}
	if err := in.Net.RestoreState(&fst, tab); err != nil {
		return nil, err
	}
	if len(snap.CC) > 0 {
		cp, ok := in.Backend.(cc.Checkpointable)
		if !ok {
			return nil, fmt.Errorf("core: checkpoint carries cc state but backend %q cannot restore it", name)
		}
		if err := cp.RestoreState(snap.CC); err != nil {
			return nil, err
		}
	}
	if len(snap.Traffic) != len(in.sources) {
		return nil, fmt.Errorf("core: checkpoint has %d generator states, scenario builds %d", len(snap.Traffic), len(in.sources))
	}
	for i, blob := range snap.Traffic {
		null := len(blob) == 0 || string(blob) == "null"
		if in.sources[i] == nil {
			if !null {
				return nil, fmt.Errorf("core: checkpoint has generator state for idle node %d", i)
			}
			continue
		}
		if null {
			return nil, fmt.Errorf("core: checkpoint missing generator state for node %d", i)
		}
		if err := in.sources[i].RestoreState(blob, tab); err != nil {
			return nil, err
		}
	}
	switch {
	case in.injector != nil && len(snap.Fault) == 0:
		return nil, fmt.Errorf("core: checkpoint missing fault-injector state")
	case in.injector == nil && len(snap.Fault) > 0:
		return nil, fmt.Errorf("core: checkpoint has fault state but scenario builds no injector")
	case in.injector != nil:
		if err := in.injector.RestoreState(snap.Fault); err != nil {
			return nil, err
		}
	}
	if len(snap.Metrics) > 0 {
		if err := in.collector.RestoreState(snap.Metrics); err != nil {
			return nil, err
		}
	}

	fc := in.Net.Codec(tab)
	codecs := in.codecs(fc)
	for i, rec := range snap.Events {
		act, attach, err := decodeAction(codecs, rec)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint event %d (%s): %w", i, rec.Kind, err)
		}
		e := simr.ScheduleReserved(sim.Time(rec.T), rec.Seq, act)
		if attach != nil {
			attach(e)
		}
	}
	if err := fc.CheckArmed(); err != nil {
		return nil, err
	}
	// Every layer is overlaid and every event is back in the list: hold
	// the state to the laws a live run is swept for.
	var broken error
	in.checkTarget().Rules(func(rule, detail string) {
		if broken == nil {
			broken = fmt.Errorf("core: checkpoint state breaks %s: %s", rule, detail)
		}
	})
	if broken != nil {
		return nil, broken
	}

	if snap.Digest != nil {
		in.dig = obs.NewDigest()
		in.dig.RestoreState(snap.Digest.Sum, snap.Digest.Records)
		in.bus().Subscribe(in.dig)
	}
	in.restored = true
	return in, nil
}

// CkptOpts configures periodic checkpointing during a run (see
// ExecuteWithCheckpoints).
type CkptOpts struct {
	// Every is the sim-time cadence between checkpoints (<= 0 writes
	// none).
	Every sim.Duration
	// Dir receives the rolling checkpoint files.
	Dir string
	// Keep bounds the rolling series (minimum 1).
	Keep int
	// OnSave, when set, observes each written checkpoint path.
	OnSave func(path string, at sim.Time)
}

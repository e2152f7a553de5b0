// Worker-resident state runtime (PR 9): the master-side half of the delta
// exchange protocol. With a Transport, partition state lives on the
// workers across supersteps — the master ships only dirty-vertex deltas and
// control metadata, workers route outbox fragments directly to the peers
// that own the destination partitions, and the delivery barrier becomes one
// Deliver round that returns per-partition accounting and next-active sets
// instead of the messages themselves.
//
// Failure handling composes with the PR 8 recovery ladder. Worker state is
// soft: everything a worker holds is a deterministic function of the last
// checkpoint (or the initial values) and the supersteps since. When a worker
// dies, the failover target answers the next delta request with a state
// miss and gets a full seed; when a delivery round is lost with a worker,
// the master re-hydrates the partition from the newest checkpoint blob
// (existing codec, via restoreCore) plus a deterministic replay of the
// supersteps since, on a private scratch engine. Replayed state is
// bit-identical to what the worker held — same program, graph, combiner,
// and association order — so runs keep their bit-identity guarantee across
// kills, reassignments, and pin-local fallbacks, with capture fully
// preserved (records always travel in exec replies).
package engine

import (
	"fmt"
	"path/filepath"
	"sort"

	"ariadne/internal/obs"
	"ariadne/internal/value"
)

// residentDeliver is the delivery barrier of a resident-state superstep.
// Destination partitions fall into three classes: master-resident (pinned
// before this superstep) columns fold locally via deliverColumn, exactly as
// the sharded barrier would; worker-resident partitions fold on their
// owning workers through one Deliver round (the master contributes only the
// columns of its own pinned partitions); and partitions that lost their
// state mid-superstep — pinned during compute, or whose worker died before
// the round — are re-hydrated by replay. Accounting (delivered, combined,
// max shard) is identical in all three classes, so the run's stats stay
// bit-identical to a local execution.
func (e *Engine) residentDeliver(ss int, combiner func(a, b value.Value) value.Value, results []partResult) (delivered, combined, maxShard int64, err error) {
	// The per-source-partition fan-out counts, from the workers' DstCounts
	// for resident results and the local outbox columns otherwise.
	counts := make([][]int64, e.nParts)
	for sp := range results {
		if results[sp].residentRemote {
			counts[sp] = results[sp].dstCounts
		} else {
			row := make([]int64, e.nParts)
			for dp := range results[sp].outbox {
				row[dp] = int64(len(results[sp].outbox[dp]))
			}
			counts[sp] = row
		}
	}

	perDP := make([]int64, e.nParts)
	var workerParts []int
	for dp := 0; dp < e.nParts; dp++ {
		if !e.localPinned[dp].Load() {
			workerParts = append(workerParts, dp)
			continue
		}
		if e.pinnedAtSS[dp] == ss {
			// Pinned mid-superstep: the remote fragments for dp were routed
			// toward a worker that no longer owns it (or died); rebuild the
			// inbox by replay and install it master-side.
			d, c, rerr := e.replayDeliver(ss, dp, counts)
			if rerr != nil {
				return 0, 0, 0, rerr
			}
			perDP[dp] = d
			delivered += d
			combined += c
			continue
		}
		d, c := e.deliverColumn(dp, combiner, results)
		perDP[dp] = d
		delivered += d
		combined += c
	}

	if len(workerParts) > 0 {
		dreq := &DeliverRequest{
			Superstep: ss,
			Combine:   combiner != nil,
			Parts:     workerParts,
			Expected:  make([][]int64, len(workerParts)),
		}
		dreq.MasterFrags = make([][][]OutMessage, len(workerParts))
		for i, dp := range workerParts {
			exp := make([]int64, e.nParts)
			mf := make([][]OutMessage, e.nParts)
			for sp := range results {
				exp[sp] = counts[sp][dp]
				if exp[sp] <= 0 || dp >= len(results[sp].outbox) {
					continue
				}
				// Forward any complete column the master holds: pinned
				// sources (workers never saw these fragments) and resident
				// sources whose peer send failed — the worker keeps the
				// column in its exec reply precisely so the master can relay
				// it here instead of forcing a replay.
				col := results[sp].outbox[dp]
				if int64(len(col)) != exp[sp] {
					continue
				}
				mf[sp] = append([]OutMessage(nil), col...)
			}
			dreq.Expected[i] = exp
			dreq.MasterFrags[i] = mf
		}
		if m := e.cfg.Metrics; m.SpansEnabled() {
			dreq.TraceID = m.SpanTraceID()
			dreq.ParentSpan = m.NewSpanID()
		}
		dres, derr := e.cfg.Transport.Deliver(e.runCtx, dreq)
		for i, dp := range workerParts {
			var part *DeliverPart
			if derr == nil && dres != nil && i < len(dres.Parts) && dres.Parts[i].OK {
				part = &dres.Parts[i]
			}
			if part == nil {
				d, c, rerr := e.replayDeliver(ss, dp, counts)
				if rerr != nil {
					return 0, 0, 0, rerr
				}
				perDP[dp] = d
				delivered += d
				combined += c
				continue
			}
			perDP[dp] = part.Delivered
			delivered += part.Delivered
			combined += part.Combined
			e.residentActive[dp] = part.Dsts
		}
	}

	for dp := range perDP {
		if perDP[dp] > maxShard {
			maxShard = perDP[dp]
		}
	}
	return delivered, combined, maxShard, nil
}

// collectResident pulls every worker-resident partition's state entering
// superstep target back into the master's arrays (values and inboxes), for
// checkpoints and the final Values() read. Partitions no worker can serve
// are re-hydrated by replay. Afterwards the master's arrays are
// authoritative for target, which also makes subsequent seeds cheap.
func (e *Engine) collectResident(target int) error {
	if e.masterAuthSS == target {
		return nil // arrays already hold this exact frontier
	}
	var parts []int
	for p := 0; p < e.nParts; p++ {
		if !e.localPinned[p].Load() {
			parts = append(parts, p)
		}
	}
	if len(parts) > 0 {
		req := &DeliverRequest{Superstep: target, CollectOnly: true, Parts: parts}
		if m := e.cfg.Metrics; m.SpansEnabled() {
			req.TraceID = m.SpanTraceID()
			req.ParentSpan = m.NewSpanID()
		}
		res, err := e.cfg.Transport.Deliver(e.runCtx, req)
		for i, p := range parts {
			var part *DeliverPart
			if err == nil && res != nil && i < len(res.Parts) && res.Parts[i].OK {
				part = &res.Parts[i]
			}
			if part != nil && len(part.Values) == e.strideLen(p) {
				j := 0
				for v := p; v < e.g.NumVertices(); v += e.nParts {
					e.values[VertexID(v)] = part.Values[j]
					j++
				}
				inbox := make(map[VertexID][]IncomingMessage, len(part.Inbox))
				for _, en := range part.Inbox {
					inbox[en.Dst] = en.Msgs
				}
				e.inboxes[p] = inbox
				continue
			}
			vals, inbox, rerr := e.replayState(target, p)
			if rerr != nil {
				return fmt.Errorf("engine: collecting partition %d at superstep %d: %w", p, target, rerr)
			}
			j := 0
			for v := p; v < e.g.NumVertices(); v += e.nParts {
				e.values[VertexID(v)] = vals[j]
				j++
			}
			e.inboxes[p] = inbox
		}
	}
	e.masterAuthSS = target
	return nil
}

// strideLen is the number of vertices partition p owns.
func (e *Engine) strideLen(p int) int {
	n := e.g.NumVertices()
	return (n - p + e.nParts - 1) / e.nParts
}

// seedLocalFromReplay installs partition p's exact state entering superstep
// ss into the master's arrays before a pin-local fallback executes it
// in-process: stride values and the superstep's inbox, from the replay
// engine (the master's last-active marks are already exact). Also records
// the mid-superstep pin so this superstep's delivery re-hydrates the
// partition's incoming fragments, which died with the workers.
func (e *Engine) seedLocalFromReplay(p, ss int) error {
	e.pinnedAtSS[p] = ss
	if e.masterAuthSS == ss {
		return nil // the arrays already hold this partition's exact state
	}
	vals, inbox, err := e.replayState(ss, p)
	if err != nil {
		return err
	}
	j := 0
	for v := p; v < e.g.NumVertices(); v += e.nParts {
		e.values[VertexID(v)] = vals[j]
		j++
	}
	e.inboxes[p] = inbox
	return nil
}

// replayDeliver recovers destination partition dp's delivery outcome for
// superstep ss after its fragments were lost (worker death, or a pin-local
// fallback mid-superstep): the replay engine advances through ss, its inbox
// for dp is the exact fold the worker would have produced, and accounting
// follows from the fan-out counts (total arrivals = delivered + combined).
// For a pinned partition the inbox installs master-side; for a still-remote
// one only the next-active set is recorded — the worker re-seeds on its
// next state miss from the same replay.
func (e *Engine) replayDeliver(ss, dp int, counts [][]int64) (delivered, combined int64, err error) {
	e.cfg.Metrics.Tracef(obs.Warn, "transport", ss,
		"partition %d delivery lost with its worker; re-hydrating from checkpoint + replay", dp)
	_, inbox, err := e.replayState(ss+1, dp)
	if err != nil {
		return 0, 0, err
	}
	var total int64
	for sp := range counts {
		total += counts[sp][dp]
	}
	for _, msgs := range inbox {
		delivered += int64(len(msgs))
	}
	combined = total - delivered
	if e.localPinned[dp].Load() {
		e.inboxes[dp] = inbox
	} else {
		act := make([]VertexID, 0, len(inbox))
		for v := range inbox {
			act = append(act, v)
		}
		sort.Slice(act, func(i, j int) bool { return act[i] < act[j] })
		e.residentActive[dp] = act
	}
	return delivered, combined, nil
}

// replayState returns partition p's exact state entering superstep target —
// stride-order values and a private copy of its inbox — from the replay
// engine, advancing it as needed. Safe from concurrent partition
// goroutines.
func (e *Engine) replayState(target, p int) ([]value.Value, map[VertexID][]IncomingMessage, error) {
	e.replayMu.Lock()
	defer e.replayMu.Unlock()
	s, err := e.rehydrate(target)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]value.Value, 0, e.strideLen(p))
	for v := p; v < e.g.NumVertices(); v += e.nParts {
		vals = append(vals, s.values[VertexID(v)])
	}
	inbox := make(map[VertexID][]IncomingMessage, len(s.inboxes[p]))
	for v, msgs := range s.inboxes[p] {
		inbox[v] = append([]IncomingMessage(nil), msgs...)
	}
	return vals, inbox, nil
}

// rehydrate advances the private replay engine to "entering superstep
// target", building it on first use: seeded from the newest readable
// checkpoint at or before target when checkpointing is configured (the
// existing blob codec, minus observer state), else replayed from superstep
// 0. The scratch engine runs the same graph, program, partition count,
// effective combiner, and forced-activation schedule as the live run — and
// no transport, observers, faults, or supervision — so each superstep it
// replays is bit-identical to what the lost worker computed. Caller holds
// replayMu.
func (e *Engine) rehydrate(target int) (*Engine, error) {
	if e.replay != nil && e.replaySS > target {
		e.replay = nil // target rewound past the scratch frontier; rebuild
	}
	if e.replay == nil {
		scratch, err := New(e.g, e.prog, Config{
			Partitions: e.nParts,
			Combiner:   e.effComb,
			ActiveAt:   e.cfg.ActiveAt,
		})
		if err != nil {
			return nil, fmt.Errorf("engine: building replay engine: %w", err)
		}
		e.replaySS = 0
		if ck := e.cfg.Checkpoint; ck != nil && ck.Dir != "" {
			if cp := newestCheckpointAtOrBefore(ck.Dir, target); cp != nil {
				if rerr := scratch.restoreCore(cp); rerr == nil {
					e.replaySS = cp.resumeSS
				}
			}
		}
		e.replay = scratch
	}
	if e.replaySS < target {
		s := e.replay
		s.cfg.MaxSupersteps = target
		s.startSS = e.replaySS
		if _, err := s.Run(); err != nil {
			e.replay = nil
			return nil, fmt.Errorf("engine: re-hydration replay to superstep %d: %w", target, err)
		}
		e.replaySS = target
	}
	return e.replay, nil
}

// newestCheckpointAtOrBefore loads the newest readable checkpoint in dir
// whose resume superstep does not exceed target, or nil when none
// qualifies. Corrupt or too-new entries fall through to older ones, same as
// Resume.
func newestCheckpointAtOrBefore(dir string, target int) *checkpointData {
	names, err := readManifest(dir)
	if err != nil {
		return nil
	}
	for i := len(names) - 1; i >= 0; i-- {
		cp, err := loadCheckpoint(filepath.Join(dir, names[i]))
		if err == nil && cp.resumeSS <= target {
			return cp
		}
	}
	return nil
}

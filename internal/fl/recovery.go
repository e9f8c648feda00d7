package fl

// Recover rebuilds a coordinator from its write-ahead journal after a crash:
// it replays the store's records, restores the nonce-stream cursor and the
// client roster to their journaled positions, and parks the incomplete round
// (if one was open) so the next SecureAggregate call re-runs it from its
// last safe boundary — upload when only round-start is durable, broadcast
// when the aggregate is. Because the cursor is restored, the re-run draws
// the exact nonce stream the lost attempt would have: the recovered epoch's
// aggregates are bit-identical to an uninterrupted run.
//
// ctx must be built from the same profile (same seed) as the crashed
// coordinator's — key generation is deterministic, so the keys match. The
// journal stays attached for the recovered epoch's appends.
func Recover(ctx *Context, store JournalStore) (*Federation, *RecoveryState, error) {
	c, state, err := RecoverCoordinator(ctx, store)
	if err != nil {
		return nil, nil, err
	}
	f := NewFederation(ctx)
	f.coord = c
	if state.Members != nil {
		f.roster.Restore(state.Members)
	}
	return f, state, nil
}

// RecoverCoordinator is Recover without the in-process host around it: the
// journal replayed into a Coordinator on ctx, for a host — cmd/flserver's
// server role — that keeps its own roster.
func RecoverCoordinator(ctx *Context, store JournalStore) (*Coordinator, *RecoveryState, error) {
	j, err := NewJournal(store)
	if err != nil {
		return nil, nil, err
	}
	recs, err := j.Records()
	if err != nil {
		return nil, nil, err
	}
	state, err := Replay(recs)
	if err != nil {
		return nil, nil, err
	}
	c := NewCoordinator(ctx)
	c.journal = j
	if rp := state.Resume; rp != nil {
		c.round = rp.Round - 1
		c.nextAttempt = rp.Attempt + 1
		c.resume = rp
		ctx.RestoreSeedCursor(rp.Cursor)
	} else {
		c.round = state.LastRound
		if state.Records > 0 {
			ctx.RestoreSeedCursor(state.Cursor)
		}
	}
	ctx.metricAdd("recoveries", 1)
	return c, &state, nil
}

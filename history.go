package stq

import "repro/internal/core"

// Tiered event history (DESIGN.md §12): the store keeps each
// direction's newest timestamps in the mutable hot tier and freezes
// cold prefixes into one immutable, compactly encoded sealed run per
// tracked edge that answers counts without decompression. Sealing is
// answer-invariant — every query is bit-identical before and after —
// so it can run at any time, including concurrently with ingestion
// and serving.

// Re-exported tiered-history types.
type (
	// HistoryConfig configures the tiered history (EnableTieredHistory).
	HistoryConfig = core.HistoryConfig
	// SealStats reports what one sealing pass froze (SealHistory).
	SealStats = core.SealStats
	// MemoryStats breaks down resident tracking-form memory by tier
	// (Memory).
	MemoryStats = core.MemoryStats
)

// EnableTieredHistory turns on the tiered event history: directions
// whose hot tier exceeds cfg.SealThreshold have their cold prefix
// sealed into their edge's compact immutable run, keeping cfg.HotKeep recent
// timestamps mutable. When cfg.AutoSealEvery > 0 a background sealer
// runs after every AutoSealEvery ingested events; otherwise sealing
// happens only on explicit SealHistory calls.
//
// Sealing never changes any answer: sealed runs reconstruct the exact
// original timestamps (sequences that do not quantize losslessly onto
// cfg.Tick are kept verbatim in immutable form), so Count, interval,
// and event-listing queries stay bit-identical to an unsealed store.
// On durable systems, checkpoints carry sealed runs in compact
// form and crash recovery remains bit-identical regardless of when
// seals happened relative to the crash.
// Like every other configuration call it serializes on the System
// mutex (see the System comment), so the {store config, sealEvery}
// pair always publishes consistently even when two configuration
// changes race.
func (s *System) EnableTieredHistory(cfg HistoryConfig) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.st.SetHistoryConfig(cfg); err != nil {
		return err
	}
	if eff, ok := s.st.GetHistoryConfig(); ok {
		s.sealEvery.Store(int64(eff.AutoSealEvery))
	}
	return nil
}

// TieredHistory reports the active tiered-history configuration, or
// ok=false when EnableTieredHistory has not been called.
func (s *System) TieredHistory() (HistoryConfig, bool) {
	return s.st.GetHistoryConfig()
}

// SealHistory synchronously seals every eligible cold prefix and
// reports what was frozen. No-op (zero stats) until
// EnableTieredHistory is called.
func (s *System) SealHistory() SealStats {
	return s.st.SealColdPrefixes()
}

// Memory reports resident tracking-form memory by tier: mutable hot
// timestamps and sealed run bytes, over roads and world edges alike.
// Unlike StorageBytes (the logical 8-bytes-per-timestamp model the
// paper's storage comparison uses), Memory counts allocated capacity —
// what the process actually holds.
func (s *System) Memory() MemoryStats {
	return s.st.Memory()
}

// WaitHistorySeals blocks until every in-flight background sealing
// pass has finished. Useful in tests and before process exit; normal
// operation never needs it, since sealing is answer-invariant.
func (s *System) WaitHistorySeals() {
	s.sealWG.Wait()
}

// maybeSeal is the ingestion-side hook of the background sealer: it
// accumulates ingested events and, once the budget crosses
// AutoSealEvery, spawns (at most) one sealing goroutine. The CAS busy
// flag means a slow seal never stacks goroutines.
//
// Accounting invariant: every sealing pass consumes exactly `every`
// units of credit (Add(-every), never Store(0)), so events that arrive
// between the threshold-crossing Add and the consumption — or while
// the sealer is busy — keep their credit and re-arm the next pass
// instead of being silently discarded. The sealer loops while a full
// backlog remains, consuming one `every` per pass.
func (s *System) maybeSeal(n int) {
	every := s.sealEvery.Load()
	if every <= 0 {
		return
	}
	if s.sealPending.Add(int64(n)) < every {
		return
	}
	if !s.sealerBusy.CompareAndSwap(false, true) {
		return
	}
	s.sealPending.Add(-every)
	s.sealWG.Add(1)
	go func() {
		defer s.sealWG.Done()
		defer s.sealerBusy.Store(false)
		for {
			s.st.SealColdPrefixes()
			every := s.sealEvery.Load()
			if every <= 0 || s.sealPending.Load() < every {
				return
			}
			s.sealPending.Add(-every)
		}
	}()
}

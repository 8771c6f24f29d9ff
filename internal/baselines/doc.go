// Package baselines holds the schedulers the paper compares TuFast
// against (§VI-B) other than 2PL, which is sched.TPL because it is also
// TuFast's L mode: Silo-style OCC (occ.go), timestamp ordering and H-TO
// (to.go), TL2/TinySTM-style STM (stm.go) and the HSync-like hybrid
// (hsync.go). Each runs as a sched.Protocol under sched.Loop and embeds
// sched.Taxed, so internal/bench can charge the reproduction's cost model
// once per software barrier. Only internal/bench imports this package;
// the library and the daemon do not link it.
package baselines

package vec

import (
	"math/rand"
	"testing"
)

// The differential suite: every native routine must be lane-exact against
// its portable generic on adversarial inputs (saturation rails, negatives,
// zero, full-range randoms) at every register-multiple width. Skipped
// where the host has no AVX2 backend.

func requireNative(t *testing.T) {
	t.Helper()
	if !Native() {
		t.Skip("native backend unavailable on this host")
	}
}

// railsI16 mixes full-range randoms with rail and near-rail values.
func railsI16(rng *rand.Rand, n int) I16 {
	out := make(I16, n)
	for i := range out {
		switch rng.Intn(6) {
		case 0:
			out[i] = MaxI16
		case 1:
			out[i] = MinI16
		case 2:
			out[i] = int16(rng.Intn(7) - 3)
		default:
			out[i] = int16(rng.Intn(1 << 16))
		}
	}
	return out
}

func railsU8(rng *rand.Rand, n int) U8 {
	out := make(U8, n)
	for i := range out {
		switch rng.Intn(6) {
		case 0:
			out[i] = MaxU8
		case 1:
			out[i] = 0
		case 2:
			out[i] = uint8(253 + rng.Intn(3))
		default:
			out[i] = uint8(rng.Intn(256))
		}
	}
	return out
}

var testWidths16 = []int{16, 32, 48, 64, 128}
var testWidths8 = []int{32, 64, 96, 128}

func TestNativeI16Primitives(t *testing.T) {
	requireNative(t)
	rng := rand.New(rand.NewSource(61))
	for _, n := range testWidths16 {
		for trial := 0; trial < 50; trial++ {
			a, b := railsI16(rng, n), railsI16(rng, n)
			c := int16(rng.Intn(1 << 16))
			thr := int16(rng.Intn(1 << 16))

			got, want := make(I16, n), make(I16, n)
			addSat16(&got[0], &a[0], &b[0], n)
			addSatGeneric(want, a, b)
			eqI16(t, "addSat16", got, want)

			subSatConst16(&got[0], &a[0], n, int(c))
			subSatConstGeneric(want, a, c)
			eqI16(t, "subSatConst16", got, want)

			max16(&got[0], &a[0], &b[0], n)
			maxGeneric(want, a, b)
			eqI16(t, "max16", got, want)

			maxConst16(&got[0], &a[0], n, int(c))
			maxConstGeneric(want, a, c)
			eqI16(t, "maxConst16", got, want)

			copy(got, b)
			copy(want, b)
			maxInto16(&got[0], &a[0], n)
			maxIntoGeneric(want, a)
			eqI16(t, "maxInto16", got, want)

			set1x16(&got[0], n, int(c))
			set1Generic(want, c)
			eqI16(t, "set1x16", got, want)

			table := railsI16(rng, 25)
			idx := make([]uint8, n)
			for i := range idx {
				idx[i] = uint8(rng.Intn(25))
			}
			gather16(&got[0], &table[0], &idx[0], n)
			gatherGeneric(want, table, idx)
			eqI16(t, "gather16", got, want)

			if g, w := hmax16(&a[0], n), horizontalMaxGeneric(a); g != w {
				t.Fatalf("hmax16(n=%d) = %d, generic %d", n, g, w)
			}
			if g, w := anyGE16(&a[0], n, int(thr)), anyGEGeneric(a, thr); g != w {
				t.Fatalf("anyGE16(n=%d, thr=%d) = %v, generic %v", n, thr, g, w)
			}
			if g, w := anyGT16(&a[0], &b[0], n), anyGTGeneric(a, b); g != w {
				t.Fatalf("anyGT16(n=%d) = %v, generic %v", n, g, w)
			}
		}
	}
}

func TestNativeU8Primitives(t *testing.T) {
	requireNative(t)
	rng := rand.New(rand.NewSource(62))
	for _, n := range testWidths8 {
		for trial := 0; trial < 50; trial++ {
			a, b := railsU8(rng, n), railsU8(rng, n)
			c := uint8(rng.Intn(256))
			thr := uint8(rng.Intn(256))

			got, want := make(U8, n), make(U8, n)
			addSatU8x(&got[0], &a[0], &b[0], n)
			addSatU8Generic(want, a, b)
			eqU8(t, "addSatU8x", got, want)

			subSatConstU8(&got[0], &a[0], n, int(c))
			subSatU8ConstGeneric(want, a, c)
			eqU8(t, "subSatConstU8", got, want)

			maxU8x(&got[0], &a[0], &b[0], n)
			maxU8sGeneric(want, a, b)
			eqU8(t, "maxU8x", got, want)

			copy(got, b)
			copy(want, b)
			maxIntoU8x(&got[0], &a[0], n)
			maxIntoU8Generic(want, a)
			eqU8(t, "maxIntoU8x", got, want)

			set1U8x(&got[0], n, int(c))
			set1U8Generic(want, c)
			eqU8(t, "set1U8x", got, want)

			table := railsU8(rng, 25)
			idx := make([]uint8, n)
			for i := range idx {
				idx[i] = uint8(rng.Intn(25))
			}
			gatherU8x(&got[0], &table[0], &idx[0], n)
			gatherU8Generic(want, table, idx)
			eqU8(t, "gatherU8x", got, want)

			if g, w := hmaxU8(&a[0], n), horizontalMaxU8Generic(a); g != w {
				t.Fatalf("hmaxU8(n=%d) = %d, generic %d", n, g, w)
			}
			if g, w := anyGEU8x(&a[0], n, int(thr)), anyGEU8Generic(a, thr); g != w {
				t.Fatalf("anyGEU8x(n=%d, thr=%d) = %v, generic %v", n, thr, g, w)
			}
			if g, w := anyGTU8x(&a[0], &b[0], n), anyGTU8Generic(a, b); g != w {
				t.Fatalf("anyGTU8x(n=%d) = %v, generic %v", n, g, w)
			}
		}
	}
}

func eqI16(t *testing.T, op string, got, want I16) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s(n=%d) lane %d: native %d, generic %d", op, len(got), i, got[i], want[i])
		}
	}
}

func eqU8(t *testing.T, op string, got, want U8) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s(n=%d) lane %d: native %d, generic %d", op, len(got), i, got[i], want[i])
		}
	}
}

// stepState bundles one randomized column-step input set; clone() deep-copies
// so native and generic runs see identical state.
type stepState16 struct {
	h, e, f, diag, maxv I16
}

func randStep16(rng *rand.Rand, rows, lanes int) *stepState16 {
	s := &stepState16{
		h:    make(I16, rows*lanes),
		e:    make(I16, rows*lanes),
		f:    make(I16, lanes),
		diag: make(I16, lanes),
		maxv: make(I16, lanes),
	}
	for i := range s.h {
		// H is a cell value in [0, MaxI16]; E may carry the -inf rail.
		s.h[i] = int16(rng.Intn(MaxI16 + 1))
		if rng.Intn(8) == 0 {
			s.h[i] = MaxI16
		}
		s.e[i] = int16(rng.Intn(1 << 16))
		if rng.Intn(8) == 0 {
			s.e[i] = MinI16
		}
	}
	for l := 0; l < lanes; l++ {
		s.diag[l] = int16(rng.Intn(MaxI16 + 1))
		s.f[l] = int16(rng.Intn(1 << 16))
		if rng.Intn(8) == 0 {
			s.f[l] = MinI16
		}
		s.maxv[l] = int16(rng.Intn(MaxI16 + 1))
	}
	return s
}

func (s *stepState16) clone() *stepState16 {
	c := &stepState16{
		h:    append(I16(nil), s.h...),
		e:    append(I16(nil), s.e...),
		f:    append(I16(nil), s.f...),
		diag: append(I16(nil), s.diag...),
		maxv: append(I16(nil), s.maxv...),
	}
	return c
}

func (s *stepState16) diff(t *testing.T, op string, o *stepState16) {
	t.Helper()
	eqI16(t, op+" h", s.h, o.h)
	eqI16(t, op+" e", s.e, o.e)
	eqI16(t, op+" f", s.f, o.f)
	eqI16(t, op+" diag", s.diag, o.diag)
	eqI16(t, op+" maxv", s.maxv, o.maxv)
}

const testStride = 25 // profile.TableWidth, without the import cycle

func TestNativeStepCol16(t *testing.T) {
	requireNative(t)
	rng := rand.New(rand.NewSource(63))
	for _, lanes := range []int{16, 32, 64} {
		for _, rows := range []int{1, 2, 7, 33} {
			for trial := 0; trial < 20; trial++ {
				st := randStep16(rng, rows, lanes)
				qr := int16(rng.Intn(100))
				r := int16(rng.Intn(30))

				score := railsI16(rng, testStride*lanes)
				seq := make([]uint8, rows)
				for i := range seq {
					seq[i] = uint8(rng.Intn(testStride))
				}
				native, generic := st.clone(), st.clone()
				stepCol16SP(&native.h[0], &native.e[0], &native.f[0], &native.diag[0], &native.maxv[0],
					&score[0], &seq[0], rows, lanes, int(qr), int(r))
				stepCol16SPGeneric(generic.h, generic.e, generic.f, generic.diag, generic.maxv,
					score, seq, rows, lanes, qr, r)
				native.diff(t, "stepCol16SP", generic)

				qp := make([]int16, rows*testStride, rows*testStride+2)
				for i := range qp {
					qp[i] = int16(rng.Intn(1 << 16))
				}
				col := make([]uint8, lanes)
				for i := range col {
					col[i] = uint8(rng.Intn(testStride))
				}
				native, generic = st.clone(), st.clone()
				stepCol16QP(&native.h[0], &native.e[0], &native.f[0], &native.diag[0], &native.maxv[0],
					&qp[0], testStride, &col[0], rows, lanes, int(qr), int(r))
				stepCol16QPGeneric(generic.h, generic.e, generic.f, generic.diag, generic.maxv,
					qp, testStride, col, rows, lanes, qr, r)
				native.diff(t, "stepCol16QP", generic)
			}
		}
	}
}

type stepState8 struct {
	h, e, f, diag, maxv U8
}

func randStep8(rng *rand.Rand, rows, lanes int) *stepState8 {
	s := &stepState8{
		h:    railsU8(rng, rows*lanes),
		e:    railsU8(rng, rows*lanes),
		f:    railsU8(rng, lanes),
		diag: railsU8(rng, lanes),
		maxv: railsU8(rng, lanes),
	}
	return s
}

func (s *stepState8) clone() *stepState8 {
	return &stepState8{
		h:    append(U8(nil), s.h...),
		e:    append(U8(nil), s.e...),
		f:    append(U8(nil), s.f...),
		diag: append(U8(nil), s.diag...),
		maxv: append(U8(nil), s.maxv...),
	}
}

func (s *stepState8) diff(t *testing.T, op string, o *stepState8) {
	t.Helper()
	eqU8(t, op+" h", s.h, o.h)
	eqU8(t, op+" e", s.e, o.e)
	eqU8(t, op+" f", s.f, o.f)
	eqU8(t, op+" diag", s.diag, o.diag)
	eqU8(t, op+" maxv", s.maxv, o.maxv)
}

func TestNativeStepCol8(t *testing.T) {
	requireNative(t)
	rng := rand.New(rand.NewSource(64))
	for _, lanes := range []int{32, 64, 128} {
		for _, rows := range []int{1, 2, 7, 33} {
			for trial := 0; trial < 20; trial++ {
				st := randStep8(rng, rows, lanes)
				bias := uint8(rng.Intn(32))
				qr := uint8(rng.Intn(256))
				r := uint8(rng.Intn(64))

				score := railsU8(rng, testStride*lanes)
				seq := make([]uint8, rows)
				for i := range seq {
					seq[i] = uint8(rng.Intn(testStride))
				}
				native, generic := st.clone(), st.clone()
				stepCol8SP(&native.h[0], &native.e[0], &native.f[0], &native.diag[0], &native.maxv[0],
					&score[0], &seq[0], rows, lanes, int(bias), int(qr), int(r))
				stepCol8SPGeneric(generic.h, generic.e, generic.f, generic.diag, generic.maxv,
					score, seq, rows, lanes, bias, qr, r)
				native.diff(t, "stepCol8SP", generic)

				qp := make([]uint8, rows*testStride, (rows-1)*testStride+32)
				for i := range qp {
					qp[i] = uint8(rng.Intn(256))
				}
				col := make([]uint8, lanes)
				for i := range col {
					col[i] = uint8(rng.Intn(testStride))
				}
				native, generic = st.clone(), st.clone()
				stepCol8QP(&native.h[0], &native.e[0], &native.f[0], &native.diag[0], &native.maxv[0],
					&qp[0], testStride, &col[0], rows, lanes, int(bias), int(qr), int(r))
				stepCol8QPGeneric(generic.h, generic.e, generic.f, generic.diag, generic.maxv,
					qp, testStride, col, rows, lanes, bias, qr, r)
				native.diff(t, "stepCol8QP", generic)
			}
		}
	}
}

func TestNativeBuildRows(t *testing.T) {
	requireNative(t)
	rng := rand.New(rand.NewSource(65))
	const nrows = testStride
	for _, lanes := range []int{16, 32, 64, 128} {
		for trial := 0; trial < 20; trial++ {
			idx := make([]uint8, lanes)
			for i := range idx {
				idx[i] = uint8(rng.Intn(testStride))
			}

			if lanes%16 == 0 {
				table := make([]int16, nrows*testStride, nrows*testStride+2)
				for i := range table {
					table[i] = int16(rng.Intn(1 << 16))
				}
				got := make([]int16, nrows*lanes)
				want := make([]int16, nrows*lanes)
				buildRows16(&got[0], &table[0], &idx[0], nrows, lanes, testStride)
				buildRows16Generic(want, table, idx, nrows, lanes, testStride)
				eqI16(t, "buildRows16", got, want)
			}
			if lanes%32 == 0 {
				table := make([]uint8, nrows*testStride, (nrows-1)*testStride+32)
				for i := range table {
					table[i] = uint8(rng.Intn(256))
				}
				got := make([]uint8, nrows*lanes)
				want := make([]uint8, nrows*lanes)
				buildRows8(&got[0], &table[0], &idx[0], nrows, lanes, testStride)
				buildRows8Generic(want, table, idx, nrows, lanes, testStride)
				eqU8(t, "buildRows8", got, want)
			}
		}
	}
}

// stripedState is one randomized input to the striped step: the previous
// column's H (cell values, some on the rail), E with the -inf rail, a
// partial tracker, and a garbage hStore the step must overwrite.
type stripedState struct {
	hLoad, hStore, e, maxv I16
}

func randStriped(rng *rand.Rand, stripes int) *stripedState {
	n := stripes * StripedLanes
	s := &stripedState{
		hLoad:  make(I16, n),
		hStore: railsI16(rng, n),
		e:      railsI16(rng, n),
		maxv:   make(I16, StripedLanes),
	}
	for i := range s.hLoad {
		s.hLoad[i] = int16(rng.Intn(MaxI16 + 1))
		if rng.Intn(8) == 0 {
			s.hLoad[i] = MaxI16
		}
	}
	for l := range s.maxv {
		s.maxv[l] = int16(rng.Intn(MaxI16 + 1))
	}
	return s
}

func (s *stripedState) clone() *stripedState {
	return &stripedState{
		hLoad:  append(I16(nil), s.hLoad...),
		hStore: append(I16(nil), s.hStore...),
		e:      append(I16(nil), s.e...),
		maxv:   append(I16(nil), s.maxv...),
	}
}

// TestNativeStepStriped16 pins the striped step's assembly against its
// portable loop over several consecutive columns, at stripe counts from
// one to many, with saturating profiles and lazy-F-heavy penalties: a
// zero extend keeps F alive across every stripe, a zero open makes the
// termination test as weak as it gets, and small random profile values
// keep H low so F wins often.
func TestNativeStepStriped16(t *testing.T) {
	requireNative(t)
	rng := rand.New(rand.NewSource(67))
	for _, stripes := range []int{1, 2, 3, 7, 33} {
		for trial := 0; trial < 40; trial++ {
			gapOpen := int16(rng.Intn(100))
			r := int16(rng.Intn(30))
			switch trial % 4 {
			case 1:
				r = 0
			case 2:
				gapOpen, r = 0, 0
			case 3:
				gapOpen = 0
			}
			qr := gapOpen + r
			native := randStriped(rng, stripes)
			generic := native.clone()
			for col := 0; col < 5; col++ {
				prof := railsI16(rng, stripes*StripedLanes)
				if trial%2 == 0 {
					for i := range prof {
						prof[i] = int16(rng.Intn(23) - 11)
					}
				}
				stepStriped16(&native.hLoad[0], &native.hStore[0], &native.e[0], &native.maxv[0],
					&prof[0], stripes, int(gapOpen), int(qr), int(r))
				stepStriped16Generic(generic.hLoad, generic.hStore, generic.e, generic.maxv,
					prof, stripes, gapOpen, qr, r)
				eqI16(t, "stepStriped16 hStore", native.hStore, generic.hStore)
				eqI16(t, "stepStriped16 e", native.e, generic.e)
				eqI16(t, "stepStriped16 maxv", native.maxv, generic.maxv)
				eqI16(t, "stepStriped16 hLoad", native.hLoad, generic.hLoad)
				native.hLoad, native.hStore = native.hStore, native.hLoad
				generic.hLoad, generic.hStore = generic.hStore, generic.hLoad
			}
		}
	}
}

// TestDispatchFallbacks pins the dispatch rules: odd lane counts and the
// portable override always take the generic path (observable because the
// exported wrappers agree with the generics everywhere).
func TestDispatchFallbacks(t *testing.T) {
	if native16(15) || native16(17) || native16(0) {
		t.Fatal("native16 accepted a non-multiple-of-16 width")
	}
	if native8(31) || native8(33) || native8(0) {
		t.Fatal("native8 accepted a non-multiple-of-32 width")
	}
	prev := ForcePortable(true)
	if native16(16) || native8(32) {
		t.Fatal("forced-portable override did not disable native dispatch")
	}
	if Backend() != "portable" || Native() {
		t.Fatal("Backend()/Native() disagree with the forced override")
	}
	if !Info().Forced {
		t.Fatal("Info().Forced false under override")
	}
	if got := ForcePortable(prev); got != true {
		t.Fatal("ForcePortable did not report the previous override")
	}
}

// TestForcedPortableParityExported runs a sample of exported entry points
// under both backends on the same inputs; on non-AVX2 hosts both runs take
// the generic path and the test degenerates to self-consistency.
func TestForcedPortableParityExported(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	a, b := railsI16(rng, 64), railsI16(rng, 64)
	nat, port := make(I16, 64), make(I16, 64)

	AddSat(nat, a, b)
	prev := ForcePortable(true)
	AddSat(port, a, b)
	ForcePortable(prev)
	eqI16(t, "AddSat backends", nat, port)

	au, bu := railsU8(rng, 64), railsU8(rng, 64)
	natu, portu := make(U8, 64), make(U8, 64)
	AddSatU8(natu, au, bu)
	prev = ForcePortable(true)
	AddSatU8(portu, au, bu)
	ForcePortable(prev)
	eqU8(t, "AddSatU8 backends", natu, portu)

	st := randStriped(rng, 3)
	port16 := st.clone()
	prof := railsI16(rng, 3*StripedLanes)
	StepStriped16(st.hLoad, st.hStore, st.e, st.maxv, prof, 3, 10, 12, 2)
	prev = ForcePortable(true)
	StepStriped16(port16.hLoad, port16.hStore, port16.e, port16.maxv, prof, 3, 10, 12, 2)
	ForcePortable(prev)
	eqI16(t, "StepStriped16 backends hStore", st.hStore, port16.hStore)
	eqI16(t, "StepStriped16 backends e", st.e, port16.e)
	eqI16(t, "StepStriped16 backends maxv", st.maxv, port16.maxv)
}

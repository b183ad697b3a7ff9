package heterosw

import (
	"fmt"
	"strings"

	"heterosw/internal/alphabet"
	"heterosw/internal/core"
	"heterosw/internal/device"
	"heterosw/internal/sched"
	"heterosw/internal/submat"
)

// ErrBadMatrix is the family sentinel wrapped by every rejected
// user-supplied substitution matrix (Options.MatrixText, the swsearch
// -matrixfile flag, the HTTP "matrix" field): test with errors.Is. The
// three members name the specific defect — an alphabet line that does not
// match the target alphabet, a non-square or asymmetric score table, and
// scores outside the int8 range the 8-bit ladder's bias arithmetic
// requires.
var (
	ErrBadMatrix         = submat.ErrBadMatrix
	ErrBadMatrixAlphabet = submat.ErrBadAlphabet
	ErrMatrixNotSquare   = submat.ErrNotSquare
	ErrMatrixScoreRange  = submat.ErrScoreRange
)

// DeviceKind names one of the modelled devices.
type DeviceKind string

const (
	// DeviceXeon is the host model: 2x Intel Xeon E5-2670, 16 cores, 32
	// hardware threads, 256-bit SIMD.
	DeviceXeon DeviceKind = "xeon"
	// DevicePhi is the coprocessor model: Intel Xeon Phi, 60 cores, 240
	// hardware threads, 512-bit SIMD, PCIe offload.
	DevicePhi DeviceKind = "phi"
)

func (k DeviceKind) model() (*device.Model, error) {
	switch k {
	case "", DeviceXeon:
		return device.Xeon(), nil
	case DevicePhi:
		return device.Phi(), nil
	}
	return nil, fmt.Errorf("heterosw: unknown device %q (have xeon, phi)", string(k))
}

// DeviceInfo describes a modelled device.
type DeviceInfo struct {
	Kind     DeviceKind
	Name     string
	Cores    int
	Threads  int
	Lanes    int
	TDPWatts float64
}

// Devices lists the modelled devices.
func Devices() []DeviceInfo {
	out := make([]DeviceInfo, 0, 2)
	for _, k := range []DeviceKind{DeviceXeon, DevicePhi} {
		m, _ := k.model()
		out = append(out, DeviceInfo{
			Kind: k, Name: m.Name, Cores: m.Cores,
			Threads: m.MaxThreads(), Lanes: m.Lanes, TDPWatts: m.TDPWatts,
		})
	}
	return out
}

// Variant names. See the paper's Section V: vectorisation mode x
// substitution-score layout. The intrinsic variants additionally accept an
// "-8bit" suffix selecting the adaptive precision ladder: an 8-bit biased
// first pass with twice the lanes per vector word, escalating saturated
// lanes to 16 and then 32 bits.
const (
	VariantNoVecQP      = "no-vec-QP"
	VariantNoVecSP      = "no-vec-SP"
	VariantGuidedQP     = "simd-QP"
	VariantGuidedSP     = "simd-SP"
	VariantIntrinsicQP  = "intrinsic-QP"
	VariantIntrinsicSP  = "intrinsic-SP"
	VariantIntrinsicQP8 = "intrinsic-QP-8bit"
	VariantIntrinsicSP8 = "intrinsic-SP-8bit"
)

// Variants lists the kernel variant names in the paper's order, followed
// by the 8-bit ladder forms of the intrinsic variants.
func Variants() []string {
	out := make([]string, 0, 8)
	for _, v := range core.Variants() {
		out = append(out, v.String())
	}
	return append(out, VariantIntrinsicQP8, VariantIntrinsicSP8)
}

// Options configures a database search. The zero value reproduces the
// paper's best configuration: intrinsic-SP kernels with blocking, BLOSUM62,
// gap open 10 / extend 2, dynamic scheduling, all device threads.
type Options struct {
	// Device selects the performance model used for simulated timing
	// (DeviceXeon when empty).
	Device DeviceKind
	// Variant is a kernel variant name (VariantIntrinsicSP when empty).
	Variant string
	// Matrix is a built-in substitution matrix name: BLOSUM45/50/62/80,
	// PAM250 or NUC (the blastn +2/-3 nucleotide scheme). When empty the
	// database alphabet's conventional default applies: BLOSUM62 for
	// protein, NUC for DNA.
	Matrix string
	// MatrixText, when non-empty, supplies a custom substitution matrix in
	// the NCBI textual format, parsed against the database's alphabet. It
	// overrides Matrix. Parse failures wrap ErrBadMatrix.
	MatrixText string
	// GapOpen and GapExtend are the affine gap penalties q and r of the
	// paper's Eq. 5; a gap of length x costs q + r*x. Both default to the
	// paper's 10 and 2 when zero. Use NoGapDefaults to pass literal
	// zeros.
	GapOpen, GapExtend int
	// NoGapDefaults disables the 10/2 defaulting above.
	NoGapDefaults bool
	// NoBlocking disables the cache-blocking optimisation (Figure 7's
	// "non-blocking" curves).
	NoBlocking bool
	// BlockRows overrides the blocking tile height (256 when zero).
	BlockRows int
	// Threads is the simulated device thread count (device maximum when
	// zero).
	Threads int
	// Schedule is the OpenMP loop policy: "dynamic" (default), "static"
	// or "guided".
	Schedule string
	// ChunkSize is the scheduling chunk (1 when zero).
	ChunkSize int
	// Workers caps real host goroutines for functional execution
	// (GOMAXPROCS when zero); it does not affect simulated time.
	Workers int
	// TopK truncates the hit list (all hits when zero).
	TopK int
	// LongSeqThreshold routes subjects longer than this to the intra-task
	// striped kernel (3072 when zero; negative disables routing). Scores
	// are identical either way.
	LongSeqThreshold int
}

// toCore resolves the options against the target database's alphabet,
// which governs the default matrix and the alphabet custom matrix text is
// parsed under.
func (o Options) toCore(alpha *alphabet.Alphabet) (core.SearchOptions, error) {
	out := core.SearchOptions{
		Threads:          o.Threads,
		ChunkSize:        o.ChunkSize,
		Workers:          o.Workers,
		TopK:             o.TopK,
		LongSeqThreshold: o.LongSeqThreshold,
	}
	variant := o.Variant
	if variant == "" {
		variant = VariantIntrinsicSP
	}
	v, prec, err := core.ParseVariantSpec(variant)
	if err != nil {
		return out, err
	}
	var m *submat.Matrix
	switch {
	case o.MatrixText != "":
		m, err = submat.Parse("custom", strings.NewReader(o.MatrixText), alpha)
	case o.Matrix != "":
		m, err = submat.ByName(o.Matrix)
	default:
		// Leave nil: the engine applies the alphabet's default
		// (BLOSUM62 for protein, NUC for DNA).
	}
	if err != nil {
		return out, err
	}
	schedule := o.Schedule
	if schedule == "" {
		schedule = "dynamic"
	}
	pol, err := sched.ParsePolicy(schedule)
	if err != nil {
		return out, err
	}
	gapOpen, gapExtend := o.GapOpen, o.GapExtend
	if !o.NoGapDefaults {
		if gapOpen == 0 {
			gapOpen = 10
		}
		if gapExtend == 0 {
			gapExtend = 2
		}
	}
	out.Params = core.Params{
		Variant:   v,
		GapOpen:   gapOpen,
		GapExtend: gapExtend,
		Blocked:   !o.NoBlocking,
		BlockRows: o.BlockRows,
		Prec:      prec,
	}
	out.Matrix = m
	out.Schedule = pol
	return out, nil
}

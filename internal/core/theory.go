package core

import (
	"fmt"
	"math"
)

// BSSDesign is the analytical model of Section V-C: the traffic marginal
// is Pareto with tail index Alpha (1 < Alpha <= 2) and minimum ell. All
// design quantities below are scale-free — they depend on the threshold
// only through the normalized ratio epsilon = a_th / realMean, so ell
// never appears explicitly.
//
// Derivation (DESIGN.md "Derivation notes"): with c = a_th/ell =
// epsilon*Alpha/(Alpha-1), a base sample exceeds a_th with probability
// c^-Alpha, each triggered interval keeps about L*c^-Alpha qualified
// samples, so the qualified fraction is L' / N = L * c^-2Alpha =: L*q, and
// the expected qualified value is E[X | X > a_th] = c * realMean. If the
// plain systematic estimate under-shoots the real mean by eta, the
// expected BSS estimate relative to the real mean is the bias ratio
//
//	xi(L, eps; alpha, eta) = ((1-eta) + L*q*c) / (1 + L*q).
//
// Solving xi = 1 for L reproduces the paper's Eq. (23) exactly:
// L = eta * c^2Alpha / (c - 1).
type BSSDesign struct {
	Alpha float64
}

// NewBSSDesign validates the tail index.
func NewBSSDesign(alpha float64) (BSSDesign, error) {
	if !(alpha > 1) || alpha > 2 {
		return BSSDesign{}, fmt.Errorf("core: BSS design needs tail index in (1,2], got %g", alpha)
	}
	return BSSDesign{Alpha: alpha}, nil
}

// EpsilonFloor returns (alpha-1)/alpha, the epsilon at which a_th equals
// the distribution minimum ell. This is the paper's observation that the
// lower root epsilon_1 of xi = 1 sits at (alpha-1)/alpha independent of L.
func (d BSSDesign) EpsilonFloor() float64 { return (d.Alpha - 1) / d.Alpha }

// ThresholdRatio returns c = a_th/ell = epsilon*alpha/(alpha-1).
func (d BSSDesign) ThresholdRatio(eps float64) float64 {
	return eps * d.Alpha / (d.Alpha - 1)
}

// epsilonOf inverts ThresholdRatio.
func (d BSSDesign) epsilonOf(c float64) float64 {
	return c * (d.Alpha - 1) / d.Alpha
}

// QualifiedFraction returns L'/N = L * c^-2alpha, the expected number of
// qualified samples per base sample — the overhead surface of Figure 15.
func (d BSSDesign) QualifiedFraction(l, eps float64) float64 {
	c := d.ThresholdRatio(eps)
	if c <= 1 {
		return l
	}
	return l * math.Pow(c, -2*d.Alpha)
}

// BiasRatio returns xi(L, eps; eta) = ((1-eta) + L*q*c)/(1 + L*q): the
// expected BSS mean estimate divided by the real mean, when the plain
// systematic estimate under-shoots by eta. eta = 0 gives the pure
// theoretical surface (Figures 10, 11, 14 use a representative eta).
func (d BSSDesign) BiasRatio(l, eps, eta float64) float64 {
	if eps <= 0 || l < 0 {
		return math.NaN()
	}
	c := d.ThresholdRatio(eps)
	q := math.Pow(c, -2*d.Alpha)
	return ((1 - eta) + l*q*c) / (1 + l*q)
}

// LForTarget solves xi(L, eps; eta) = xi for L at fixed eps:
// L = (xi - (1-eta)) / (q*(c - xi)). It errors when the target is
// unreachable (c <= xi: qualified samples are not large enough to lift the
// estimate that high) or the solution is negative.
func (d BSSDesign) LForTarget(eps, eta, xi float64) (float64, error) {
	if eps <= 0 {
		return 0, fmt.Errorf("core: epsilon %g must be positive", eps)
	}
	c := d.ThresholdRatio(eps)
	if c <= xi {
		return 0, fmt.Errorf("core: threshold ratio c=%.4g <= target xi=%.4g; raise epsilon", c, xi)
	}
	q := math.Pow(c, -2*d.Alpha)
	l := (xi - (1 - eta)) / (q * (c - xi))
	if l < 0 {
		return 0, fmt.Errorf("core: negative L=%.4g (target xi=%.4g below the base bias)", l, xi)
	}
	return l, nil
}

// LUnbiased is the paper's Eq. (23): the L that exactly cancels a known
// base bias eta at threshold ratio eps, L = eta*c^2alpha/(c-1).
func (d BSSDesign) LUnbiased(eps, eta float64) (float64, error) {
	if eta < 0 || eta >= 1 {
		return 0, fmt.Errorf("core: eta %g outside [0,1)", eta)
	}
	return d.LForTarget(eps, eta, 1)
}

// XiPeak locates the epsilon maximizing xi at fixed L (and the maximum
// value), by golden-section search over the threshold ratio.
func (d BSSDesign) XiPeak(l, eta float64) (epsAtPeak, xiMax float64) {
	// xi is unimodal in c on (0, inf): 0 at c->0, rises through the
	// qualified-dominated regime, decays to 1-eta. Search log-space.
	lo, hi := math.Log(1e-3), math.Log(1e9)
	phi := (math.Sqrt(5) - 1) / 2
	a, b := lo, hi
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f := func(logc float64) float64 {
		return d.BiasRatio(l, d.epsilonOf(math.Exp(logc)), eta)
	}
	f1, f2 := f(x1), f(x2)
	for i := 0; i < 200 && b-a > 1e-12; i++ {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = f(x2)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = f(x1)
		}
	}
	c := math.Exp((a + b) / 2)
	return d.epsilonOf(c), d.BiasRatio(l, d.epsilonOf(c), eta)
}

// EpsRoots returns the two epsilon solutions of xi(L, eps; eta) = target,
// bracketing the peak of the unimodal xi curve (Figure 11). The paper's
// epsilon_1 (lower root, approximately (alpha-1)/alpha for target 1 and
// small eta) is economically infeasible; epsilon_2 (upper root) is the one
// BSS uses. An error is returned when the target exceeds the peak.
func (d BSSDesign) EpsRoots(l, eta, target float64) (eps1, eps2 float64, err error) {
	if l <= 0 {
		return 0, 0, fmt.Errorf("core: L=%g must be positive", l)
	}
	epsPeak, xiMax := d.XiPeak(l, eta)
	if xiMax < target {
		return 0, 0, fmt.Errorf("core: target xi=%.4g exceeds the maximum %.4g reachable with L=%g (raise L)", target, xiMax, l)
	}
	g := func(eps float64) float64 { return d.BiasRatio(l, eps, eta) - target }
	// Lower root in (tiny, epsPeak]; xi -> 0 as eps -> 0.
	eps1, err = bisect(g, epsPeak*1e-6, epsPeak, 1e-12)
	if err != nil {
		return 0, 0, fmt.Errorf("core: lower epsilon root: %w", err)
	}
	// Upper root in [epsPeak, huge); xi -> 1-eta < target as eps -> inf
	// whenever target > 1-eta, which holds since target <= xiMax and the
	// curve decays below it.
	hi := epsPeak
	for d.BiasRatio(l, hi, eta) > target && hi < 1e12 {
		hi *= 2
	}
	eps2, err = bisect(g, epsPeak, hi, 1e-12)
	if err != nil {
		return 0, 0, fmt.Errorf("core: upper epsilon root: %w", err)
	}
	return eps1, eps2, nil
}

// EpsForTarget returns the economical (upper-branch) epsilon achieving the
// target bias ratio at fixed L. Figure 15's overhead surface shows why the
// upper branch is the right one: qualified-sample cost explodes at small
// epsilon.
func (d BSSDesign) EpsForTarget(l, eta, target float64) (float64, error) {
	_, eps2, err := d.EpsRoots(l, eta, target)
	return eps2, err
}

// bisect finds a sign change of g on [a,b] and refines it to tol.
func bisect(g func(float64) float64, a, b, tol float64) (float64, error) {
	ga, gb := g(a), g(b)
	if math.IsNaN(ga) || math.IsNaN(gb) {
		return 0, fmt.Errorf("core: bisection endpoints not finite")
	}
	if ga == 0 {
		return a, nil
	}
	if gb == 0 {
		return b, nil
	}
	if ga*gb > 0 {
		return 0, fmt.Errorf("core: no sign change on [%g, %g] (g=%g, %g)", a, b, ga, gb)
	}
	for i := 0; i < 200 && b-a > tol*(1+math.Abs(a)); i++ {
		m := (a + b) / 2
		gm := g(m)
		if gm == 0 {
			return m, nil
		}
		if ga*gm < 0 {
			b, gb = m, gm
		} else {
			a, ga = m, gm
		}
	}
	_ = gb
	return (a + b) / 2, nil
}

// EtaFromRate is the paper's Eq. (35): the alpha-stable central limit
// theorem for heavy-tailed summands gives |Xs - Xr| ~ N^(1/alpha - 1), so
// with N = rate * Nt the expected relative bias of plain systematic
// sampling scales as eta = cs * r^(1/alpha-1). The paper calibrates
// cs in (0.25, 0.35) for its synthetic traces and (0.2, 0.3) for the real
// ones. The result is clamped to [0, 0.99].
func EtaFromRate(rate, alpha, cs float64) float64 {
	if !(rate > 0) || rate > 1 || !(alpha > 1) || cs <= 0 {
		return math.NaN()
	}
	eta := cs * math.Pow(rate, 1/alpha-1)
	if eta > 0.99 {
		eta = 0.99
	}
	return eta
}

// DesignForRate assembles the paper's online parameter rule (Section V-C,
// "Tuning L and a_th without knowledge of eta"): fix epsilon (the paper
// recommends 1.0-1.5), estimate eta from the sampling rate via Eq. (35),
// and solve Eq. (23) for L. The continuous solution is floored to an
// integer — empirical traffic departs from the pure-Pareto model in the
// direction of more qualified samples, so rounding down keeps the
// correction conservative. The result is clamped to [0, maxL]; L = 0
// means the estimated bias is too small to warrant extra samples and BSS
// degenerates to plain systematic sampling.
func (d BSSDesign) DesignForRate(rate, eps, cs float64, maxL int) (l int, eta float64, err error) {
	eta = EtaFromRate(rate, d.Alpha, cs)
	if math.IsNaN(eta) {
		return 0, 0, fmt.Errorf("core: invalid rate %g / cs %g for the eta law", rate, cs)
	}
	lf, err := d.LUnbiased(eps, eta)
	if err != nil {
		return 0, 0, fmt.Errorf("core: designing L for rate %g: %w", rate, err)
	}
	l = int(lf)
	if l < 0 {
		l = 0
	}
	if maxL > 0 && l > maxL {
		l = maxL
	}
	return l, eta, nil
}

package smt

import (
	"math"
	"math/big"
	"strconv"
)

// coef is a rational coefficient with an int64 fast path. While the value
// fits, it is num/den with den > 0 and gcd(|num|, den) == 1, and arithmetic
// stays on the stack; any overflow promotes the value to an exact *big.Rat.
// Big-path results demote back to the fast fields as soon as they fit, so a
// transiently large intermediate does not poison later arithmetic.
//
// The zero value is the rational 0 — big.Rat's num==nil zero is mirrored
// here by treating den == 0 as den == 1 (see norm). MinInt64 is excluded
// from the fast domain so |num| and -num never overflow.
type coef struct {
	num, den int64
	r        *big.Rat // non-nil: big fallback; num/den are then invalid
}

// fastOK reports whether n is inside the fast domain.
func fastOK(n int64) bool { return n != math.MinInt64 }

// add64 returns a+b and whether it did not overflow.
func add64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mul64 returns a*b and whether it did not overflow.
func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		return 0, false
	}
	c := a * b
	if c/b != a {
		return 0, false
	}
	return c, true
}

// gcd64 returns gcd(|a|, |b|); both must be inside the fast domain.
func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	// Euclid's loop converges in at most ~90 steps on int64.
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// denom returns the denominator, mapping the zero value's 0 to 1.
func (c *coef) denom() int64 {
	if c.den == 0 {
		return 1
	}
	return c.den
}

// setInt64 sets c to the integer n.
func (c *coef) setInt64(n int64) {
	if !fastOK(n) {
		c.r = new(big.Rat).SetInt64(n)
		return
	}
	c.num, c.den, c.r = n, 1, nil
}

// setFrac64 sets c to num/den (den != 0), reducing.
func (c *coef) setFrac64(num, den int64) {
	if !fastOK(num) || !fastOK(den) {
		c.r = new(big.Rat).SetFrac64(num, den)
		c.demote()
		return
	}
	if den < 0 {
		num, den = -num, -den
	}
	if g := gcd64(num, den); g > 1 {
		num /= g
		den /= g
	}
	c.num, c.den, c.r = num, den, nil
}

// setRat sets c to a copy of x (which is never retained).
func (c *coef) setRat(x *big.Rat) {
	if n, d := x.Num(), x.Denom(); n.IsInt64() && d.IsInt64() && fastOK(n.Int64()) && fastOK(d.Int64()) {
		// big.Rat is always normalized, so the fast fields are canonical.
		c.num, c.den, c.r = n.Int64(), d.Int64(), nil
		return
	}
	c.r = new(big.Rat).Set(x)
}

// set copies o into c.
func (c *coef) set(o *coef) {
	if o.r == nil {
		c.num, c.den, c.r = o.num, o.denom(), nil
		return
	}
	if c.r == nil {
		c.r = new(big.Rat).Set(o.r)
		return
	}
	c.r.Set(o.r)
}

// promote moves c onto the big path and returns the big value.
func (c *coef) promote() *big.Rat {
	if c.r == nil {
		c.r = new(big.Rat).SetFrac64(c.num, c.denom())
	}
	return c.r
}

// demote moves a big value back to the fast fields when it fits.
func (c *coef) demote() {
	if c.r == nil {
		return
	}
	if n, d := c.r.Num(), c.r.Denom(); n.IsInt64() && d.IsInt64() && fastOK(n.Int64()) && fastOK(d.Int64()) {
		c.num, c.den, c.r = n.Int64(), d.Int64(), nil
	}
}

// ratScratch promotes o's value into scratch without touching o.
func (o *coef) ratScratch(scratch *big.Rat) *big.Rat {
	if o.r != nil {
		return o.r
	}
	return scratch.SetFrac64(o.num, o.denom())
}

// add sets c += o.
func (c *coef) add(o *coef) {
	if c.r == nil && o.r == nil {
		a, b, x, y := c.num, c.denom(), o.num, o.denom()
		// a/b + x/y over lcm(b, y): reduce by g = gcd(b, y) first so the
		// cross products stay small for the common den==1 cases.
		g := gcd64(b, y)
		yg := y / g
		if n1, ok := mul64(a, yg); ok {
			if n2, ok := mul64(x, b/g); ok {
				if n, ok := add64(n1, n2); ok {
					if d, ok := mul64(b, yg); ok {
						c.reduce64fast(n, d)
						return
					}
				}
			}
		}
	}
	var scratch big.Rat
	c.promote().Add(c.r, o.ratScratch(&scratch))
	c.demote()
}

// addInt64 sets c += n.
func (c *coef) addInt64(n int64) {
	if c.r == nil && fastOK(n) {
		if p, ok := mul64(n, c.denom()); ok {
			if s, ok := add64(c.num, p); ok && fastOK(s) {
				c.num = s
				return
			}
		}
	}
	var scratch big.Rat
	c.promote().Add(c.r, scratch.SetInt64(n))
	c.demote()
}

// mul sets c *= o.
func (c *coef) mul(o *coef) {
	if c.r == nil && o.r == nil {
		// Cross-reduce before multiplying: (a/b)·(x/y) with g1 = gcd(a, y),
		// g2 = gcd(x, b) keeps products minimal and the result canonical.
		a, b, x, y := c.num, c.denom(), o.num, o.denom()
		if g := gcd64(a, y); g > 1 {
			a /= g
			y /= g
		}
		if g := gcd64(x, b); g > 1 {
			x /= g
			b /= g
		}
		if n, ok := mul64(a, x); ok {
			if d, ok := mul64(b, y); ok {
				c.num, c.den, c.r = n, d, nil
				return
			}
		}
	}
	var scratch big.Rat
	c.promote().Mul(c.r, o.ratScratch(&scratch))
	c.demote()
}

// quo sets c /= o (o must be non-zero).
func (c *coef) quo(o *coef) {
	if o.r == nil {
		var inv coef
		inv.num, inv.den = o.denom(), o.num
		if inv.den < 0 {
			inv.num, inv.den = -inv.num, -inv.den
		}
		c.mul(&inv)
		return
	}
	var scratch big.Rat
	c.promote().Quo(c.r, o.ratScratch(&scratch))
	c.demote()
}

// neg sets c = -c.
func (c *coef) neg() {
	if c.r == nil {
		c.num = -c.num
		return
	}
	c.r.Neg(c.r)
	c.demote()
}

// inv sets c = 1/c (c must be non-zero).
func (c *coef) inv() {
	if c.r == nil {
		n, d := c.denom(), c.num
		if d < 0 {
			n, d = -n, -d
		}
		c.num, c.den = n, d
		return
	}
	c.r.Inv(c.r)
	c.demote()
}

// reduce64fast stores num/den (den > 0 guaranteed by callers' lcm math)
// after gcd reduction, staying on the fast path.
func (c *coef) reduce64fast(num, den int64) {
	if g := gcd64(num, den); g > 1 {
		num /= g
		den /= g
	}
	c.num, c.den, c.r = num, den, nil
}

// sign returns -1, 0 or 1.
func (c *coef) sign() int {
	if c.r == nil {
		switch {
		case c.num > 0:
			return 1
		case c.num < 0:
			return -1
		default:
			return 0
		}
	}
	return c.r.Sign()
}

// isZero reports whether c == 0.
func (c *coef) isZero() bool { return c.sign() == 0 }

// isInt reports whether c is an integer.
func (c *coef) isInt() bool {
	if c.r == nil {
		return c.denom() == 1
	}
	return c.r.IsInt()
}

// isOne reports whether c == 1.
func (c *coef) isOne() bool {
	if c.r == nil {
		return c.num == 1 && c.denom() == 1
	}
	return c.r.Cmp(ratOne) == 0
}

// cmp compares c and o: -1, 0 or 1.
func (c *coef) cmp(o *coef) int {
	if c.r == nil && o.r == nil {
		// a/b ⋈ x/y  ==  a·y ⋈ x·b (b, y > 0).
		if l, ok := mul64(c.num, o.denom()); ok {
			if r, ok := mul64(o.num, c.denom()); ok {
				switch {
				case l < r:
					return -1
				case l > r:
					return 1
				default:
					return 0
				}
			}
		}
	}
	var s1, s2 big.Rat
	return c.ratScratch(&s1).Cmp(o.ratScratch(&s2))
}

// equal reports whether c == o. Both representations are canonical, so the
// fast/fast case is a field compare.
func (c *coef) equal(o *coef) bool {
	if c.r == nil && o.r == nil {
		return c.num == o.num && c.denom() == o.denom()
	}
	return c.cmp(o) == 0
}

// rat returns a fresh big.Rat with c's value; the caller owns it.
func (c *coef) rat() *big.Rat {
	if c.r == nil {
		return new(big.Rat).SetFrac64(c.num, c.denom())
	}
	return new(big.Rat).Set(c.r)
}

// numBig returns c's numerator as a fresh big.Int.
func (c *coef) numBig() *big.Int {
	if c.r == nil {
		return big.NewInt(c.num)
	}
	return new(big.Int).Set(c.r.Num())
}

// denomBig returns c's denominator as a fresh big.Int.
func (c *coef) denomBig() *big.Int {
	if c.r == nil {
		return big.NewInt(c.denom())
	}
	return new(big.Int).Set(c.r.Denom())
}

// num64 returns the numerator and whether it fits in the fast domain.
func (c *coef) num64() (int64, bool) {
	if c.r == nil {
		return c.num, true
	}
	if n := c.r.Num(); n.IsInt64() && fastOK(n.Int64()) {
		return n.Int64(), true
	}
	return 0, false
}

// den64 returns the denominator and whether it fits in the fast domain.
func (c *coef) den64() (int64, bool) {
	if c.r == nil {
		return c.denom(), true
	}
	if d := c.r.Denom(); d.IsInt64() && fastOK(d.Int64()) {
		return d.Int64(), true
	}
	return 0, false
}

// appendRat appends c in big.Rat.RatString form ("n" or "n/d").
func (c *coef) appendRat(b []byte) []byte {
	if c.r == nil {
		b = strconv.AppendInt(b, c.num, 10)
		if d := c.denom(); d != 1 {
			b = append(b, '/')
			b = strconv.AppendInt(b, d, 10)
		}
		return b
	}
	return append(b, c.r.RatString()...)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// setBigInt sets c to the integer n, which is copied, never retained.
func (c *coef) setBigInt(n *big.Int) {
	if n.IsInt64() && fastOK(n.Int64()) {
		c.num, c.den, c.r = n.Int64(), 1, nil
		return
	}
	c.r = new(big.Rat).SetInt(n)
}

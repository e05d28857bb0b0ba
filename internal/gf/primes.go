package gf

// IsPrime reports whether n is a prime number.
func IsPrime(n int) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := 3; d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// PrimePower decomposes q as p^k for a prime p and k >= 1.
// ok is false when q is not a prime power.
func PrimePower(q int) (p, k int, ok bool) {
	if q < 2 {
		return 0, 0, false
	}
	// Find the smallest prime factor; q is a prime power iff it is the only one.
	p = smallestPrimeFactor(q)
	n := q
	for n%p == 0 {
		n /= p
		k++
	}
	if n != 1 {
		return 0, 0, false
	}
	return p, k, true
}

// IsPrimePower reports whether q = p^k for some prime p and k >= 1.
func IsPrimePower(q int) bool {
	_, _, ok := PrimePower(q)
	return ok
}

func smallestPrimeFactor(n int) int {
	if n%2 == 0 {
		return 2
	}
	for d := 3; d*d <= n; d += 2 {
		if n%d == 0 {
			return d
		}
	}
	return n
}

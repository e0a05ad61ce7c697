// Package badignoretest seeds reasonless, unscoped, misspelled, stale,
// and well-formed teclint:ignore directives for the badignore framework
// tests.
package badignoretest

func approxZero(x float64) bool {
	// A reasoned directive: suppresses floateq, emits nothing.
	return x == 0 //teclint:ignore floateq exact zero sentinel comparison
}

func approxEqual(a, b float64) bool {
	// A bare directive still suppresses floateq on its line, but the
	// directive itself is reported so the gate stays red.
	return a == b /* teclint:ignore floateq */ // want badignore
}

func approxClose(a, b float64) bool {
	/* teclint:ignore floateq */ // want badignore
	return a == b
}

func approxBoth(a, b float64) bool {
	// A reasoned rule list: suppresses every listed rule, emits nothing.
	return a == b //teclint:ignore floateq,dimflow comparing like-for-like sentinels
}

func unscoped(a, b float64) bool {
	// No rule list at all: suppresses nothing and is itself flagged.
	return a == b /* teclint:ignore */ // want badignore
}

func reasonOnly(a, b float64) bool {
	// A reason with no rule list: the first word parses as an unknown
	// rule, suppresses nothing, and the directive is flagged.
	return a == b //teclint:ignore totally safe here // want badignore
}

func misspelled(a, b float64) bool {
	// An unknown rule name suppresses nothing; flag the typo.
	return a == b //teclint:ignore floateqq sentinel comparison // want badignore
}

func stale(n int) int {
	// A directive naming a rule that no longer exists suppresses
	// nothing; flag it so no stale waiver outlives its rule.
	return n //teclint:ignore lockcopy the copy is read-only // want badignore
}

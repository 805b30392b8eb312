// Package deadcodetest is the deadcode analyzer's fixture. Together with
// its user package it is the whole "module" the test loads: user is the
// only shipped caller, deadcodetest_test.go does not count.
package deadcodetest

import "sort"

func Unreferenced() {} // want `Unreferenced is dead`

// OnlyTested is called from deadcodetest_test.go alone.
func OnlyTested() int { return 1 } // want `OnlyTested is dead`

// Recursive calls itself and nothing else calls it.
func Recursive(n int) int { // want `Recursive is dead`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// byLen's methods are reached only through sort.Interface.
type byLen []string

func (s byLen) Len() int           { return len(s) }
func (s byLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s byLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

func SortByLen(xs []string) {
	sort.Sort(byLen(xs))
}

// Shape is an interface the fixture declares itself.
type Shape interface{ Area() float64 }

type square struct{ side float64 }

func (q square) Area() float64 { return q.side * q.side }

func (q square) Perimeter() float64 { return 4 * q.side } // want `square.Perimeter is dead`

func Unit() Shape { return square{side: 1} }

// double is only ever passed as a value.
func double(x int) int { return 2 * x }

func Apply(f func(int) int, x int) int { return f(x) }

func ApplyDouble(x int) int { return Apply(double, x) }

// Max is generic; only user instantiates it.
func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Box's method is reached through an instantiation in user.
type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

//lint:ignore deadcode the fixture's justified suppression
func Kept() {} // want `Kept is dead`

// Package unreachable seeds the unreachable check. The fixture's facade
// calls Entry; from there the graph reaches a CHA-dispatched method and a
// function taken as a value. A registry var, the stdlib's sort.Interface
// and fmt.Stringer, and a suppression keep three more functions clean.
// A method of a generic type is reached through its instantiation. A
// dead function, two dead methods and a function only a test calls are
// the findings.
package unreachable

import (
	"fmt"
	"sort"
)

// shape is dispatched through an interface: CHA resolves the call in
// Entry to every module implementation.
type shape interface {
	area() int
}

// square implements shape.
type square struct{ side int }

// area is reached only by CHA from Entry's interface call: clean.
func (s square) area() int { return s.side * s.side }

// perimeter is never called: a finding.
func (s square) perimeter() int { return 4 * s.side }

// Entry is the fixture's root, called from the module facade.
func Entry(s shape, names []string) int {
	sort.Sort(byLen(names))
	apply := double // taken as a value: double is reached
	var st stack[int]
	st.push(len(names))
	return apply(s.area())
}

// double is reached because Entry takes it as a value: clean.
func double(n int) int { return 2 * n }

// registry is a package-level table: functions in its initializer are
// roots, although nothing reads the table.
var registry = map[string]func() int{"seven": seven}

// seven is reached only through registry's initializer: clean.
func seven() int { return 7 }

// byLen orders names by length. Only package sort calls Len, Less and
// Swap, and only package fmt calls String: all clean.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// String renders the names.
func (b byLen) String() string { return fmt.Sprint([]string(b)) }

// dead has no caller at all: a finding.
func dead() int { return 0 }

// onlyTested is called from u_test.go alone; test files are not part of
// the graph, so it is a finding.
func onlyTested() int { return 1 }

// seam is a test seam, kept on purpose and suppressed with its reason.
//
//lint:ignore unreachable fixture: u_test.go TestSeam needs it
func seam() int { return 2 }

// stack is generic: Entry calls push on stack[int], whose method object
// differs from the generic one the graph holds.
type stack[T any] struct{ items []T }

// push is reached from Entry through the instantiation: clean.
func (s *stack[T]) push(v T) { s.items = append(s.items, v) }

// pop is never called: a finding.
func (s *stack[T]) pop() T { return s.items[len(s.items)-1] }

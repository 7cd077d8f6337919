// Package fixture is the fixture module's root facade. Like the real
// repository's root package it sits outside internal/ and may time
// real-world things — which is exactly what makes it a laundering
// hazard: an internal/ package that calls through it can reach the wall
// clock without ever importing package time. The walltimereach fixtures
// exercise both directions.
package fixture

import (
	"time"

	"fixture/internal/unreachable"
)

// start anchors the facade's elapsed-time helper.
var start = time.Now()

// WallElapsed reads the wall clock. Legal here (the leaf walltime check
// stops at the internal/ boundary), but internal/ callers reaching it
// are walltimereach findings.
func WallElapsed() float64 { return time.Since(start).Seconds() }

// Pure is a wall-clock-free helper: internal/ callers stay clean, which
// pins that walltimereach flags reachability, not mere boundary
// crossing.
func Pure(n int) int { return n * 2 }

// Unreachable is the root of the unreachable fixture: exported
// root-package functions are entry points, and everything this call
// reaches is clean.
func Unreachable() int { return unreachable.Entry(nil, nil) }

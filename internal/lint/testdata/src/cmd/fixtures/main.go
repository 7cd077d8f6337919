// Command fixtures is the fixture module's entry point for the
// unreachable check: it references every function the other fixture
// packages seed, so those packages report only the checks they are named
// for. Package internal/unreachable is left out on purpose.
package main

import (
	"fmt"

	"fixture/internal/chaos"
	"fixture/internal/directives"
	"fixture/internal/faultinject"
	"fixture/internal/floatorder"
	"fixture/internal/goroutine"
	"fixture/internal/indexsync"
	"fixture/internal/invariant"
	"fixture/internal/journalfence"
	"fixture/internal/maporder"
	"fixture/internal/mgmt/policy"
	"fixture/internal/mgmt/slo"
	"fixture/internal/newdirectives"
	"fixture/internal/randbad"
	"fixture/internal/runpool"
	"fixture/internal/sim"
	"fixture/internal/telemetry"
	"fixture/internal/timerapi"
	"fixture/internal/wallreach"
	"fixture/internal/walltime"
)

func main() {
	fns := []any{
		chaos.Run, chaos.Repro,
		directives.MultiSuppressed,
		faultinject.Fork,
		floatorder.BadSum, floatorder.BadProduct, floatorder.BadSpelledOut,
		floatorder.GoodIntSum, floatorder.GoodMax, floatorder.GoodSorted,
		goroutine.BadCapture, goroutine.BadArg, goroutine.BadScopeSlice,
		goroutine.GoodPlain, goroutine.GoodLocal,
		indexsync.Corrupt, indexsync.Maintain,
		invariant.Check,
		(*journalfence.Disk).Submit, (*journalfence.Disk).SubmitAsync, journalfence.Background,
		maporder.BadAppend, maporder.GoodAppend, maporder.GoodSortSlice,
		maporder.BadFprint, maporder.BadBuilder, maporder.BadTelemetry,
		maporder.GoodSum, maporder.GoodSliceRange,
		policy.Parse, slo.Parse,
		newdirectives.Drive, newdirectives.Broken, newdirectives.Quarantine,
		(*newdirectives.Journal).AppendIfEpoch,
		randbad.Draw, randbad.Build, randbad.DrawV2, randbad.SuppressedDraw,
		runpool.Do, runpool.Undocumented,
		sim.NewSeeded, (*sim.Engine).Stop, (*sim.Timer).Stop,
		(*telemetry.Registry).Inc,
		timerapi.BadEngineCapture, timerapi.BadTimerArg, timerapi.BadTimerSlice,
		timerapi.SuppressedEngineCapture, timerapi.GoodLocalEngine,
		wallreach.Drive, wallreach.Stamp, wallreach.Scale,
		walltime.Stamp, walltime.Wait, walltime.Suppressed,
		walltime.BadlySuppressed, walltime.CleanDuration,
	}
	fmt.Println(len(fns), "fixture entry points")
}

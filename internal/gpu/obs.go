package gpu

import (
	"errors"
	"strconv"

	"culzss/internal/health"
	"culzss/internal/obs"
)

// SimStageSecondsMetric is the histogram family the *modeled* device
// times observe into, labelled {stage="kernel"|"h2d"|"d2h"}. It is
// deliberately separate from obs.StageSecondsMetric: that family carries
// measured wall-clock spans, this one carries the simulator's
// deterministic schedule, and mixing the two bases in one family would
// make every quantile meaningless.
const SimStageSecondsMetric = "culzss_sim_stage_seconds"

// observeReport mirrors one finished device run into the registry: a
// launch counter per kernel, the modeled kernel/transfer stage
// histograms, and the measured host step as a wall-clock "post-pass"
// span. Nil registry or nil report is a no-op.
func observeReport(reg *obs.Registry, op string, rep *Report) {
	if reg == nil || rep == nil {
		return
	}
	reg.SetHelp("culzss_gpu_launches_total", "Kernel launches completed, by kernel name.")
	reg.SetHelp(SimStageSecondsMetric, "Modeled (simulated) device time per stage.")
	reg.Counter("culzss_gpu_launches_total", obs.L("kernel", rep.Launch.Kernel)).Inc()
	reg.Histogram(SimStageSecondsMetric, obs.L("stage", "kernel")).Observe(rep.Launch.KernelTime.Seconds())
	reg.Histogram(SimStageSecondsMetric, obs.L("stage", "h2d")).Observe(rep.H2D.Seconds())
	reg.Histogram(SimStageSecondsMetric, obs.L("stage", "d2h")).Observe(rep.D2H.Seconds())
	reg.Tracer().Record(obs.Span{Op: op, Stage: "post-pass", Device: -1, Duration: rep.HostTime})
}

// observeDispatch wraps dispatchV1's pool walk in a "dispatch" span
// annotated with the attempt count and the retry/degrade/timeout
// outcome, and keeps the dispatch counters. res.Device is -1 for a CPU
// degrade, matching the span convention.
func observeDispatch(reg *obs.Registry, op string, res Outcome, err error, sp *obs.ActiveSpan) {
	if reg == nil {
		return
	}
	reg.SetHelp("culzss_dispatch_degraded_total", "Supervised dispatches that fell back to the CPU encoder.")
	if res.Degraded {
		reg.Counter("culzss_dispatch_degraded_total").Inc()
		sp.Annotate("degraded", "true")
	}
	if res.Attempts > 0 {
		sp.Annotate("attempts", strconv.Itoa(res.Attempts))
	}
	if res.TimedOut > 0 {
		sp.Annotate("timeouts", strconv.Itoa(res.TimedOut))
	}
	sp.SetDevice(res.Device).End(err)
}

// isTimeout reports whether err is (or wraps) a watchdog cut.
func isTimeout(err error) bool {
	var te *health.TimeoutError
	return errors.As(err, &te)
}

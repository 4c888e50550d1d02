package main

import (
	"time"

	"repro/rtrbench"
)

// The stream probe: ekfslam as a periodic task under the default skip-next
// policy, bounded by a tick count so every stream run does the same kernel
// work.
const (
	streamKernel = "ekfslam"
	streamPeriod = 2 * time.Millisecond
	streamTicks  = 1000
	// warmupTicks bounds the short warm-up stream.
	warmupTicks = 100
)

// stream runs one short warm-up stream, then one stream of streamTicks ticks,
// and returns its exact mean release→completion latency in ms.
func (b *bench) stream() (tickMean float64, err error) {
	defer logPhase("stream", 0, time.Now())
	opts := rtrbench.StreamOptions{
		Options: rtrbench.Options{Size: rtrbench.SizeSmall, Seed: 1 + int64(uint64(b.seed)%1000)},
		Kernel:  streamKernel,
		Period:  streamPeriod,
	}
	opts.MaxTicks = warmupTicks
	if _, err := b.streamOnce(opts); err != nil {
		return 0, err
	}
	opts.MaxTicks = streamTicks
	res, err := b.streamOnce(opts)
	if err != nil {
		return 0, err
	}
	b.setExact("stream.restarts", res.Runs)
	st := res.Stream
	b.setLayer("stream.tick_mean_ms", ms(st.Latency.Mean))
	b.setLayer("stream.jitter_mean_ms", ms(st.Jitter.Mean))
	b.setLayer("stream.tick_p99_ms", ms(st.Latency.P99))
	b.setLayer("stream.miss_rate", float64(st.Misses)/float64(st.Ticks))
	b.setLayer("stream.shed_ratio", float64(st.Sheds)/float64(st.Ticks+st.Sheds))
	b.setLayer("base.stream.ticks", float64(st.Ticks))
	b.setLayer("base.stream.releases", float64(st.Ticks+st.Sheds))
	if b.tr != nil {
		if err := b.kernelStep(opts.Options); err != nil {
			return 0, err
		}
	}
	return ms(st.Latency.Mean), nil
}

// streamOnce runs one stream and checks that it executed every tick.
func (b *bench) streamOnce(opts rtrbench.StreamOptions) (rtrbench.StreamResult, error) {
	id := b.tr.next()
	start := time.Now()
	res, err := rtrbench.Stream(b.ctx, opts)
	end := time.Now()
	if b.ctx.Err() != nil {
		return res, b.ctx.Err()
	}
	b.tr.add(span{id: id, group: b.tr.group("stream"), name: "rtrbench.Stream", layer: "stream", lane: laneMain, start: start, end: end})
	b.attempt(1)
	switch {
	case err != nil:
		b.fail("stream: %v", err)
	case res.Stream.Ticks != opts.MaxTicks:
		b.fail("stream: %d ticks executed, bound %d", res.Stream.Ticks, opts.MaxTicks)
	}
	return res, nil
}

// kernelStep times the streamed kernel's step outside the scheduler: one
// rtrbench.Run with StepLatency at the stream's seed.
func (b *bench) kernelStep(o rtrbench.Options) error {
	o.StepLatency = true
	id := b.tr.next()
	start := time.Now()
	r, err := rtrbench.RunContext(b.ctx, streamKernel, o)
	end := time.Now()
	if b.ctx.Err() != nil {
		return b.ctx.Err()
	}
	b.attempt(1)
	if err != nil || r.Steps == nil {
		b.fail("%s with StepLatency: %v", streamKernel, err)
		return nil
	}
	b.tr.add(span{id: id, group: b.tr.group("stream"), name: "RunContext " + streamKernel + " steps", layer: "core", kernel: streamKernel, lane: laneMain, start: start, end: end})
	b.setLayer("stream.kernel_step_mean_ms", ms(r.Steps.Mean))
	return nil
}

//! Observability benchmark: the Chrome trace sink's two costs, recording
//! events during a run and rendering them as JSON afterwards.

use psb_bench::micro::{bench, group};
use psb_obs::TraceSink;
use std::hint::black_box;

/// Records `events` events in the mix a traced stream engine emits:
/// per prefetch a `predicted` instant, an in-flight `X` span, a `used`
/// instant and an occupancy counter sample.
fn record(sink: &mut TraceSink, events: u64) {
    for i in 0..events / 4 {
        let (tid, ts, block) = (i % 8, 10 * i, 0x4000 + 64 * i);
        sink.instant("predicted", "prefetch", tid, ts, [("block", block)]);
        sink.complete("prefetch", "prefetch", tid, ts + 1, 36, [("block", block)]);
        sink.instant("used", "demand", tid, ts + 40, [("block", block), ("late_by", i % 3)]);
        sink.counter("occupancy", tid, ts + 40, [("ready", 3), ("in_flight", 1), ("priority", 7)]);
    }
}

fn main() {
    group("trace");
    const RECORDED: u64 = 10_000;
    bench("trace_record", || {
        let mut sink = TraceSink::new(1 << 20);
        record(&mut sink, black_box(RECORDED));
        black_box(sink.len());
    });
    println!("(record basis: {RECORDED} events per iter, fresh sink)");

    const RENDERED: u64 = 100_000;
    let mut sink = TraceSink::new(1 << 20);
    for b in 0..8 {
        sink.thread_name(b, &format!("stream-buffer-{b}"));
    }
    record(&mut sink, RENDERED);
    bench("trace_render", || {
        black_box(black_box(&sink).to_json().to_string().len());
    });
    println!("(render basis: {} events per iter, to_json + to_string)", sink.len());

    if let Err(e) = psb_bench::micro::write_json_default() {
        eprintln!("{}: {e}", psb_bench::micro::BENCH_JSON);
    }
}

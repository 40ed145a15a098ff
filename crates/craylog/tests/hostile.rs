//! Heap bounds for the nodelist parser under hostile and machine-wide
//! placements.
//!
//! A `nodelist=` field is input from outside the program: a log line, or
//! a line a `logdiver-serve` client pushed. Its cost must follow the
//! bytes and the number of ranges it names, never the nids those ranges
//! cover. A counting allocator makes that an exact, noise-free check: a
//! parser that went back to a dense bitmap fails here on any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use craylog::alps::AlpsRecord;

/// Counts live and peak heap bytes per thread, so concurrently running
/// tests do not see each other's allocations.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialised thread-locals without destructors, which
// neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + layout.size());
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(layout.size())));
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns the most heap it held at once, beyond what was
/// live when it started.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
}

/// Heap a rejected line may cost: a fixed multiple of its bytes, as for
/// hostile checkpoint files.
const HEAP_PER_INPUT_BYTE: usize = 16;
const HEAP_SLACK: usize = 4096;

fn placed(width: u64, nodelist: &str) -> String {
    format!(
        "2013-03-28 12:30:00 apsys PLACED apid=1 batch=2.bw user=u0001 cmd=a.out type=XE width={width} nodelist={nodelist}"
    )
}

/// Parses `line` once so the interner holds its command, then measures a
/// second parse: what is left is the record's own heap.
fn parse_warm(line: &str) -> (Result<AlpsRecord, String>, usize) {
    let _ = AlpsRecord::parse(&placed(1, "nid[0]"));
    peak_heap(|| AlpsRecord::parse_bytes(line.as_bytes()).map_err(|f| f.reason().to_string()))
}

#[test]
fn the_top_nid_costs_what_nid_0_costs() {
    let (rec, peak) = parse_warm(&placed(1, "nid[4294967295]"));
    let Ok(AlpsRecord::Placed(p)) = rec else {
        panic!("not a placement: {rec:?}");
    };
    assert_eq!(p.nodes.runs(), &[(u32::MAX, u32::MAX)]);
    assert!(peak <= 4096, "{peak} heap bytes for one nid");
}

/// The claim behind ranges from the parser on: a placement as wide as the
/// machine holds one pair, not a bit per nid (27,000 nids would be
/// 3,375 bytes of bitmap).
#[test]
fn a_machine_wide_placement_holds_its_ranges_only() {
    for (width, nodelist) in [
        (27_000, "nid[0-26999]"),
        (27_000, "nid[0-8999,10000-18999,20000-28999]"),
    ] {
        let (rec, peak) = parse_warm(&placed(width, nodelist));
        let Ok(AlpsRecord::Placed(p)) = rec else {
            panic!("{nodelist}: not a placement: {rec:?}");
        };
        assert_eq!(p.nodes.len(), width);
        assert!(peak <= 64, "{nodelist}: {peak} heap bytes of node storage");
    }
}

/// A line at `logdiver-serve`'s default 1 MiB `--max-line`, all of it
/// maximal ranges. Walking their nids took minutes; merging ranges takes
/// heap in proportion to the line.
#[test]
fn a_megabyte_of_wide_ranges_is_rejected_in_proportion() {
    let mut nodelist = String::from("nid[0-1000000");
    while nodelist.len() < (1 << 20) - 16 {
        nodelist.push_str(",0-1000000");
    }
    nodelist.push(']');
    let line = placed(1, &nodelist);
    let (rec, peak) = parse_warm(&line);
    assert_eq!(rec.unwrap_err(), "width disagrees with nodelist");
    assert!(
        peak <= HEAP_PER_INPUT_BYTE * line.len() + HEAP_SLACK,
        "{peak} heap bytes for a {}-byte line",
        line.len()
    );
    // The same ranges, once, with the right width: still one pair.
    let (rec, _) = parse_warm(&placed(1_000_001, "nid[0-1000000,0-1000000]"));
    assert!(rec.is_ok(), "{rec:?}");
}

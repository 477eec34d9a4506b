//! What the benchmark reads from the host: peak memory, per-thread
//! scheduler statistics, and a fixed CPU yardstick.

use std::time::{Duration, Instant};

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Thread ids of this process.
pub fn thread_ids() -> Vec<u64> {
    std::fs::read_dir("/proc/self/task")
        .map(|d| {
            d.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// `(on-CPU ns, run-queue wait ns)` of thread `tid`, from its `schedstat`.
pub fn schedstat(tid: u64) -> Option<(u64, u64)> {
    let s = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    let mut f = s.split_whitespace().map(|x| x.parse::<u64>().ok());
    Some((f.next()??, f.next()??))
}

/// One slice of yardstick work: eight independent xorshift lanes with a
/// popcount per step. Independent lanes keep several execution ports busy,
/// as the planner's word-parallel sweeps do, so a slice slows down with the
/// host about as much as the routing code does; a single dependent chain
/// would hardly notice a busy neighbour on the same core. About half a
/// millisecond on a 2.1 GHz Xeon vCPU.
fn yardstick_slice() -> u64 {
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut acc = 0u64;
    for _ in 0..40_000 {
        for x in lanes.iter_mut() {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            acc = acc.wrapping_add(u64::from(x.count_ones()));
        }
    }
    std::hint::black_box(acc ^ lanes[0])
}

/// Times one yardstick slice.
pub fn yardstick_slice_time() -> Duration {
    let t = Instant::now();
    yardstick_slice();
    t.elapsed()
}

/// Host speed the benchmark's times are expressed at, in yardstick slices
/// per second: a round figure inside the 1,800–2,600 that a 2.1 GHz Xeon
/// vCPU of a shared host reads.
pub const REFERENCE_YARDSTICK_PER_S: f64 = 2000.0;

/// Consecutive samples that share one host-speed reading.
pub const HOST_WINDOW: usize = 8;

/// The host's speed relative to [`REFERENCE_YARDSTICK_PER_S`] at each of
/// `slice_s.len()` samples, each the time of a yardstick slice or `None`
/// where none could be run. Samples are taken in windows of
/// [`HOST_WINDOW`]: a window's speed is its slices' count over their total
/// time; a window without slices takes the whole run's.
pub fn window_speeds(slice_s: &[Option<f64>]) -> Vec<f64> {
    let speed = |s: &[Option<f64>]| {
        let (count, total) = s
            .iter()
            .flatten()
            .fold((0.0, 0.0), |(c, t), x| (c + 1.0, t + x));
        (count > 0.0).then(|| count / total / REFERENCE_YARDSTICK_PER_S)
    };
    let overall = speed(slice_s).unwrap_or(1.0);
    slice_s
        .chunks(HOST_WINDOW)
        .flat_map(|w| std::iter::repeat_n(speed(w).unwrap_or(overall), w.len()))
        .collect()
}

/// Runs `f` between two runs of [`HOST_WINDOW`]` / 2` yardstick slices and
/// returns its result with the seconds it took at the reference host speed:
/// its wall time multiplied by the speed the slices read around it.
pub fn time_at_reference<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let slices = |k: usize| {
        (0..k)
            .map(|_| yardstick_slice_time().as_secs_f64())
            .sum::<f64>()
    };
    let before = slices(HOST_WINDOW / 2);
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    let after = slices(HOST_WINDOW / 2);
    let speed = HOST_WINDOW as f64 / (before + after) / REFERENCE_YARDSTICK_PER_S;
    (out, wall * speed)
}

/// Yardstick slices per second (median of `slices` timed slices). It runs
/// no program code, so no program change can move it: it tells a slow
/// host from a slow change.
pub fn yardstick_per_s(slices: usize) -> f64 {
    let rates: Vec<f64> = (0..slices.max(1))
        .map(|_| 1.0 / yardstick_slice_time().as_secs_f64())
        .collect();
    crate::stats::median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speeds_are_read_per_window() {
        let r = 1.0 / REFERENCE_YARDSTICK_PER_S;
        let slices = [
            [Some(r); HOST_WINDOW],
            [Some(2.0 * r); HOST_WINDOW],
            [None; HOST_WINDOW],
        ]
        .concat();
        let speeds = window_speeds(&slices[..2 * HOST_WINDOW + 1]);
        assert_eq!(speeds.len(), 2 * HOST_WINDOW + 1);
        assert!(speeds[..HOST_WINDOW]
            .iter()
            .all(|&s| (s - 1.0).abs() < 1e-9));
        assert!(speeds[HOST_WINDOW..2 * HOST_WINDOW]
            .iter()
            .all(|&s| (s - 0.5).abs() < 1e-9));
        // A window without slices takes the run's speed: 16 slices in 24 r.
        assert!((speeds[2 * HOST_WINDOW] - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(window_speeds(&[None, None]), vec![1.0, 1.0]);
    }

    #[test]
    fn host_probes_read_this_process() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        let ids = thread_ids();
        assert!(!ids.is_empty());
        assert!(ids.iter().any(|&t| schedstat(t).is_some()));
        assert!(yardstick_per_s(1) > 0.0);
    }
}

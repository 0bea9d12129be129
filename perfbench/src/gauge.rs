//! Host-speed gauge of the untraced run.
//!
//! The benchmark runs on shared virtual machines whose speed drifts with
//! other tenants' load, by up to 2x over seconds. The gauge times each
//! independent unit of an operation (a plant, a program text) and then a
//! fixed calibration kernel; a unit's relative time is its wall time over
//! the mean of the kernel's times just before and just after it. The
//! kernel shares no code with the program, so its time follows the host's
//! speed alone, and the ratio does not.

use std::time::Instant;

/// What the gauge measured since it was last read.
#[derive(Debug, Default, Clone, Copy)]
pub struct Reading {
    /// Wall seconds of the units.
    pub wall: f64,
    /// CPU seconds (user + system, all threads) of the units.
    pub cpu: f64,
    /// Sum over the units of wall time over kernel time.
    pub rel: f64,
    /// Units timed.
    pub units: usize,
}

pub struct Gauge {
    /// Threads the kernel runs on: those the operation keeps busy.
    threads: usize,
    /// The kernel's last time, which serves as the next unit's "before".
    last: Option<f64>,
    reading: Reading,
}

impl Gauge {
    pub fn new(threads: usize) -> Self {
        Gauge {
            threads,
            last: None,
            reading: Reading::default(),
        }
    }

    /// Run `f` as one unit, then the kernel.
    pub fn unit<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = match self.last {
            Some(c) => c,
            None => calibrate(self.threads),
        };
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu0;
        let after = calibrate(self.threads);
        self.last = Some(after);
        let r = &mut self.reading;
        r.wall += wall;
        r.cpu += cpu;
        r.rel += wall / ((before + after) / 2.0);
        r.units += 1;
        out
    }

    /// The measurements since the last call, which it clears.
    pub fn take(&mut self) -> Reading {
        std::mem::take(&mut self.reading)
    }
}

/// Wall time in seconds of a fixed calibration kernel — hash-map updates
/// over a few MiB of keys, then a sort: the kind of memory traffic the
/// program makes — run at once on `threads` threads. It takes 30–60 ms on
/// a 2-vCPU Xeon virtual machine, depending on the host's load.
fn calibrate(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(|| std::hint::black_box(kernel()));
        }
        std::hint::black_box(kernel());
    });
    t.elapsed().as_secs_f64()
}

fn kernel() -> u64 {
    use std::collections::HashMap;
    use std::hash::{BuildHasherDefault, DefaultHasher};

    let mut counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in 0..400_000u64 {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *counts.entry(x % 200_000).or_default() += i;
    }
    let mut values: Vec<u64> = counts.into_values().collect();
    values.sort_unstable();
    values[values.len() / 2]
}

/// User plus system CPU time of this process (all threads, live and
/// exited), from `/proc/self/stat` in clock ticks of 1/100 s; 0 where it
/// cannot be read.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_add_up_and_take_clears() {
        let mut g = Gauge::new(1);
        let sleep = || std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(g.unit(|| 7), 7);
        g.unit(sleep);
        let r = g.take();
        assert_eq!(r.units, 2);
        assert!(r.wall >= 0.02 && r.rel > 0.0);
        assert_eq!(g.take().units, 0);
    }
}

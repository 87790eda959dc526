//! CPU time and peak memory of a process, read from `/proc`.

use std::fs;
use std::time::Instant;

/// Kernel clock ticks per second (`USER_HZ`): 100 on every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// `"self"` or a pid, as `/proc` names processes.
pub fn proc_name(pid: Option<u32>) -> String {
    pid.map_or("self".to_string(), |p| p.to_string())
}

/// User + system CPU seconds the process has used so far (all threads).
pub fn cpu_seconds(proc_name: &str) -> f64 {
    let stat =
        fs::read_to_string(format!("/proc/{proc_name}/stat")).expect("/proc/<pid>/stat reads");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let after = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = after.split_ascii_whitespace().skip(11); // utime is field 14
    let mut tick =
        || fields.next().and_then(|f| f.parse::<f64>().ok()).expect("stat has utime/stime");
    (tick() + tick()) / TICKS_PER_S
}

/// CPU time per unit of work, read in blocks of at least [`BLOCK_S`] (the
/// kernel counts in 10 ms ticks) and reported as the median block, so a
/// disturbed stretch of a run moves it as little as it moves a median rate.
pub struct CpuMeter {
    block_started: Instant,
    cpu_then: f64,
    units: u64,
    seconds_per_unit: Vec<f64>,
}

/// Seconds of work between two readings of the process's CPU time.
const BLOCK_S: f64 = 0.5;

impl CpuMeter {
    pub fn start() -> CpuMeter {
        CpuMeter {
            block_started: Instant::now(),
            cpu_then: cpu_seconds("self"),
            units: 0,
            seconds_per_unit: Vec::new(),
        }
    }

    fn close_block(&mut self) {
        let cpu = cpu_seconds("self");
        self.seconds_per_unit.push((cpu - self.cpu_then) / self.units as f64);
        *self = CpuMeter {
            seconds_per_unit: std::mem::take(&mut self.seconds_per_unit),
            ..CpuMeter::start()
        };
    }

    /// This process just did `units` more units of work.
    pub fn did(&mut self, units: u64) {
        self.units += units;
        if self.block_started.elapsed().as_secs_f64() >= BLOCK_S {
            self.close_block();
        }
    }

    /// Median CPU seconds per unit (a run shorter than one block is one
    /// block).
    pub fn seconds_per_unit(mut self) -> f64 {
        if self.seconds_per_unit.is_empty() {
            self.close_block();
        }
        crate::metrics::median(&self.seconds_per_unit)
    }
}

/// Peak resident set size (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb(proc_name: &str) -> f64 {
    let status =
        fs::read_to_string(format!("/proc/{proc_name}/status")).expect("/proc/<pid>/status reads");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("status has VmHWM");
    kib * 1024.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_has_cpu_time_and_a_peak() {
        let mut x = 0u64;
        while cpu_seconds("self") < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(peak_rss_mb(&proc_name(None)) > 0.5);
        assert_eq!(proc_name(Some(12)), "12");
    }
}

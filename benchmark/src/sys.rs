//! The three Linux calls the harness needs and `std` does not offer: CPU
//! affinity (to hold the runs still) and `wait4` (a child's own peak RSS).
//! Declared `extern "C"` the way `crates/serve/src/daemon.rs` declares
//! `signal`: no libc crate is vendored.

/// A CPU set as the kernel's bitmask: room for 1024 CPUs.
pub type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
mod ffi {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    /// which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss_kib: i64,
        pub rest: [i64; 13],
    }
}

/// The CPUs this thread may run on, or `None` where the call is missing
/// or fails.
pub fn allowed_cpus() -> Option<CpuSet> {
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc =
            unsafe { ffi::sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Restricts the calling thread — and every thread or process it creates
/// from now on — to `set`. Returns whether the kernel accepted it.
pub fn set_allowed_cpus(set: &CpuSet) -> bool {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `set` is a live buffer of exactly the size passed; pid 0
        // names the calling thread.
        let rc = unsafe { ffi::sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
        rc == 0
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = set;
        false
    }
}

/// The lowest CPU in `set`.
pub fn first_cpu(set: &CpuSet) -> Option<usize> {
    set.iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
}

/// How many CPUs `set` holds.
pub fn cpu_count(set: &CpuSet) -> usize {
    set.iter().map(|w| w.count_ones() as usize).sum()
}

/// The set holding only `cpu`.
pub fn single_cpu(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    set
}

/// Pins the calling thread to the first CPU it is allowed on. Returns the
/// CPU and the set to restore with [`set_allowed_cpus`], or `None` when
/// pinning is unavailable.
pub fn pin_to_first_cpu() -> Option<(usize, CpuSet)> {
    let before = allowed_cpus()?;
    let cpu = first_cpu(&before)?;
    set_allowed_cpus(&single_cpu(cpu)).then_some((cpu, before))
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reaped {
    /// Exit code, or 128 + signal number when a signal killed it.
    pub code: i32,
    /// The child's own peak resident set in KiB.
    pub maxrss_kib: i64,
}

/// Reaps `child` with `wait4`, which reports the resource usage of that
/// one child (`getrusage(RUSAGE_CHILDREN)` would report the maximum over
/// every child so far).
pub fn wait_with_rusage(child: std::process::Child) -> std::io::Result<Reaped> {
    #[cfg(target_os = "linux")]
    {
        let mut status = 0i32;
        let mut usage = ffi::Rusage::default();
        // SAFETY: both out-pointers are live for the call, and the pid is a
        // child of this process that nothing else reaps: `child` is moved
        // in here and never waited on through `std`.
        let rc = unsafe { ffi::wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let code = if status & 0x7f == 0 {
            (status >> 8) & 0xff
        } else {
            128 + (status & 0x7f)
        };
        Ok(Reaped {
            code,
            maxrss_kib: usage.maxrss_kib,
        })
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = child;
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "wait4 rusage needs Linux",
        ))
    }
}

/// `VmHWM` (peak resident set, KiB) of a live process, from `/proc`.
pub fn vm_hwm_kib(pid: u32) -> Option<i64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_set_arithmetic() {
        let set = single_cpu(70);
        assert_eq!(first_cpu(&set), Some(70));
        assert_eq!(cpu_count(&set), 1);
        let mut two = single_cpu(3);
        two[0] |= 1 << 1;
        assert_eq!(first_cpu(&two), Some(1));
        assert_eq!(cpu_count(&two), 2);
        assert_eq!(first_cpu(&[0; 16]), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn wait4_reports_exit_code_and_a_resident_set() {
        let child = std::process::Command::new("sh")
            .args(["-c", "exit 3"])
            .spawn()
            .expect("spawn sh");
        let reaped = wait_with_rusage(child).expect("wait4");
        assert_eq!(reaped.code, 3);
        assert!(reaped.maxrss_kib > 0);
    }
}

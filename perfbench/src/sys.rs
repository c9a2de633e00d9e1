//! Process resource readings from `/proc`: CPU time and resident memory
//! of this process or of the `pase serve` child.

use std::time::Duration;

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const SC_CLK_TCK: i32 = 2;
pub const SIGINT: i32 = 2;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// User + system CPU time of a process (`None` = this one).
pub fn cpu_time(pid: Option<u32>) -> Result<Duration, String> {
    let path = proc_path(pid, "stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').ok_or("malformed stat")? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("{path}: no field {i}"))
    };
    // utime and stime are fields 14 and 15 of stat(5); `rest` starts at 3.
    let total = ticks(11)? + ticks(12)?;
    // SAFETY: sysconf only reads a configuration constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    Ok(Duration::from_nanos(total * 1_000_000_000 / hz))
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`).
pub fn status_kb(pid: Option<u32>, field: &str) -> Result<u64, String> {
    let path = proc_path(pid, "status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no {field}"))
}

/// Send `sig` to process `pid`.
pub fn signal(pid: u32, sig: i32) -> Result<(), String> {
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    // SAFETY: kill(2) takes plain integers and touches no memory of ours.
    if unsafe { kill(pid, sig) } == 0 {
        Ok(())
    } else {
        Err(format!(
            "kill({pid}, {sig}): {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Ask the kernel to SIGKILL this process when its parent exits. Meant
/// for a freshly forked child, before exec.
pub fn die_with_parent() {
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: prctl(PR_SET_PDEATHSIG) takes integers and touches no
    // memory of ours.
    unsafe {
        prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
    }
}

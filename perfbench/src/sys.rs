//! Process and machine readings: CPU time and peak memory from `/proc`,
//! and the fingerprint every result carries.

use rotor::rotor_analysis::report::Json;
use std::collections::{BTreeMap, BTreeSet};

/// `/proc` reports CPU time in `USER_HZ` ticks, 100 per second on Linux.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process (every thread), from
/// `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick count") as f64 };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// Last-level cache size as the kernel reports it, e.g. `105 MiB`.
fn l3_size() -> Json {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map_or(Json::Null, |s| Json::Str(s.trim().to_string()))
}

/// The machine and plan a result was measured on: core count, L3 size,
/// arch/OS, the shard count, every `ROTOR_*` variable in effect, and the
/// backends the runners resolved per family.
pub fn fingerprint(shards: usize, backends: &BTreeMap<String, BTreeSet<&'static str>>) -> Json {
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let rotor_env: Vec<(String, Json)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("ROTOR_"))
        .map(|(k, v)| (k, Json::Str(v)))
        .collect();
    let backends: Vec<(String, Json)> = backends
        .iter()
        .map(|(family, seen)| {
            let labels = seen.iter().map(|b| Json::Str((*b).to_string())).collect();
            (family.clone(), Json::Arr(labels))
        })
        .collect();
    Json::obj([
        ("available_parallelism", Json::Int(parallelism as u64)),
        ("l3", l3_size()),
        ("arch", Json::Str(std::env::consts::ARCH.into())),
        ("os", Json::Str(std::env::consts::OS.into())),
        ("shards", Json::Int(shards as u64)),
        ("rotor_env", Json::Obj(rotor_env)),
        ("backends", Json::Obj(backends)),
    ])
}

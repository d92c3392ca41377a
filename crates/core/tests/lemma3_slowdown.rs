//! Property test for the paper's slow-down lemma (Lemma 3): delaying
//! agents never *speeds up* exploration. For any delay schedule, the set
//! of nodes the delayed deployment has visited by round `t` is contained
//! in the undelayed deployment's visited set at round `t` — so per-vertex
//! first-visit times only ever increase under delays.
//!
//! The unit test in `delays.rs` pins one hand-picked instance; this
//! integration test sweeps deterministic *random* ring instances (sizes,
//! agent placements, pointer initialisations and delay schedules all
//! drawn from chained `splitmix64` streams), which is where a subtle
//! break in the coupling argument would actually show up.

use rotor_core::delays::DelaySchedule;
use rotor_core::rng::splitmix64;
use rotor_core::{CoverProcess, RingRouter};

/// A deterministic instance drawn from `seed`: ring size, agent starts,
/// direction bits and a random hold schedule.
struct Instance {
    n: usize,
    starts: Vec<u32>,
    dirs: Vec<u8>,
    schedule: DelaySchedule,
}

fn draw_instance(seed: u64) -> Instance {
    let mut s = splitmix64(seed);
    let mut next = || {
        s = splitmix64(s);
        s
    };
    let n = 8 + (next() % 57) as usize; // 8 ..= 64
    let k = 1 + (next() % 4) as usize; // 1 ..= 4
    let starts: Vec<u32> = (0..k).map(|_| (next() % n as u64) as u32).collect();
    let dirs: Vec<u8> = (0..n).map(|_| (next() & 1) as u8).collect();
    // Up to 6 random holds: each pins up to 3 agents at a node over a
    // random window inside the observed horizon. Holding more agents than
    // the node has is fine — the delayed step clamps to the occupancy.
    let mut schedule = DelaySchedule::new();
    for _ in 0..(next() % 7) {
        let v = (next() % n as u64) as u32;
        let from = 1 + next() % 180;
        let len = 1 + next() % 40;
        let count = 1 + (next() % 3) as u32;
        schedule.hold_during(v, from..from + len, count);
    }
    Instance {
        n,
        starts,
        dirs,
        schedule,
    }
}

#[test]
fn random_delay_schedules_never_speed_up_ring_exploration() {
    let rounds = 200u64;
    for trial in 0..50u64 {
        let inst = draw_instance(0x05DE_1A75 ^ trial);
        let mut plain = RingRouter::new(inst.n, &inst.starts, &inst.dirs);
        let mut delayed = RingRouter::new(inst.n, &inst.starts, &inst.dirs);
        for round in 1..=rounds {
            plain.step();
            delayed.step_delayed(inst.schedule.at(round));
            for v in 0..inst.n {
                assert!(
                    !delayed.visits().contains(v) || plain.visits().contains(v),
                    "trial {trial} (n = {}, k = {}): node {v} visited by the \
                     delayed run but not the plain run at round {round}",
                    inst.n,
                    inst.starts.len()
                );
            }
        }
        // Lemma 3 in terms of cover: if the delayed run covered within
        // the horizon, the plain run covered no later.
        if let Some(d) = delayed.cover_round() {
            let p = plain
                .cover_round()
                .expect("plain run covers whenever the delayed run does");
            assert!(
                p <= d,
                "trial {trial}: plain cover {p} after delayed cover {d}"
            );
        }
        // Agent conservation under arbitrary holds.
        let held: u32 = delayed.occupied().iter().map(|&(_, c)| c).sum();
        assert_eq!(held as usize, inst.starts.len(), "trial {trial}");
    }
}

#[test]
fn empty_schedule_is_exactly_the_undelayed_process() {
    for trial in 0..10u64 {
        let inst = draw_instance(0xE4_17 ^ trial);
        let empty = DelaySchedule::new();
        let mut plain = RingRouter::new(inst.n, &inst.starts, &inst.dirs);
        let mut delayed = RingRouter::new(inst.n, &inst.starts, &inst.dirs);
        for _ in 0..100 {
            plain.step();
            delayed.step_delayed(empty.at(delayed.round() + 1));
        }
        assert_eq!(plain.state(), delayed.state(), "trial {trial}");
        assert_eq!(plain.cover_round(), delayed.cover_round());
    }
}

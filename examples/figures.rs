//! Renders the paper's constructions as SVG figures.
//!
//! Writes to `target/figures/`:
//!
//! * `figure1_stripe_stall.svg` — the Theorem 1 double-stripe
//!   impossibility: broadcast dies at the stripe, the isolated band
//!   stays grey;
//! * `figure2_lattice_stall.svg` — the Figure 2 construction at
//!   `m = m0 + 1`: a small decided diamond around the source inside an
//!   undecided sea;
//! * `theorem2_wavefront.svg` — protocol B at `m = 2·m0` sweeping the
//!   whole torus (acceptance-wave heat map);
//! * `crash_barrier.svg` — the crash-stop height-`r` barrier.
//!
//! ```text
//! cargo run --release -p bftbcast-examples --bin figures
//! ```

use bftbcast::prelude::*;
use bftbcast_examples::banner;

fn write(path: &std::path::Path, svg: String) {
    std::fs::write(path, svg).expect("write figure");
    println!("wrote {}", path.display());
}

fn main() {
    let dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(dir).expect("create target/figures");
    banner("rendering figures");

    // Figure 1 (Theorem 1): stripes starve the band at m = m0 - 1.
    {
        let s = Scenario::builder(20, 20, 2)
            .faults(1, 50)
            .stripe_placement(&[(6, 1, true), (15, 1, false)])
            .build()
            .expect("valid scenario");
        let p = s.params();
        let proto = CountingProtocol::starved(s.grid(), p, p.m0() - 1);
        let mut sim = s.counting_sim(proto);
        let out = sim.run_oracle(p.mf);
        let map = GridMap::from_counting_sim(&sim, s.source(), 14);
        write(
            &dir.join("figure1_stripe_stall.svg"),
            map.render(&format!(
                "Theorem 1: m = m0-1 = {} stalls at the stripes (coverage {:.2})",
                p.m0() - 1,
                out.coverage()
            )),
        );
    }

    // Figure 2: the exact construction, r=4, t=1, mf=1000, m=59.
    {
        let s = Scenario::builder(45, 45, 4)
            .faults(1, 1000)
            .lattice_placement_with_offset(41)
            .build()
            .expect("valid scenario");
        let p = s.params();
        let proto = CountingProtocol::starved(s.grid(), p, p.m0() + 1);
        let mut sim = s.counting_sim(proto);
        let out = sim.run_oracle(p.mf);
        let map = GridMap::from_counting_sim(&sim, s.source(), 10);
        write(
            &dir.join("figure2_lattice_stall.svg"),
            map.render(&format!(
                "Figure 2: r=4 t=1 mf=1000, m = m0+1 = {} stalls (coverage {:.3})",
                p.m0() + 1,
                out.coverage()
            )),
        );
    }

    // Theorem 2: the full sweep at m = 2*m0.
    {
        let s = Scenario::builder(20, 20, 2)
            .faults(1, 50)
            .lattice_placement()
            .build()
            .expect("valid scenario");
        let p = s.params();
        let proto = CountingProtocol::protocol_b(s.grid(), p);
        let mut sim = s.counting_sim(proto);
        let out = sim.run_oracle(p.mf);
        assert!(out.is_reliable());
        let map = GridMap::from_counting_sim(&sim, s.source(), 14);
        write(
            &dir.join("theorem2_wavefront.svg"),
            map.render(&format!(
                "Theorem 2: m = 2m0 = {} completes in {} waves",
                p.sufficient_budget(),
                out.waves
            )),
        );
    }

    // Crash barrier: height-r stripes disconnect at budget 1.
    {
        let grid = Grid::new(20, 20, 2).expect("valid grid");
        let mut dead = crash_stripe(&grid, 6, 2);
        dead.extend(crash_stripe(&grid, 14, 2));
        dead.sort_unstable();
        dead.dedup();
        let proto = crash_only_protocol(&grid);
        let mut sim = CountingSim::new(grid.clone(), proto, 0, &[], 0)
            .with_crash_nodes(&dead, CrashBehavior::Immediate);
        let out = sim.run_oracle(0);
        // `GridMap::from_counting_sim` draws every non-good node as
        // Byzantine; build the map by hand to mark the crashed ones.
        let mut map = GridMap::new(&grid, 14);
        for u in grid.nodes() {
            let style = if u == 0 {
                CellStyle::source()
            } else if dead.contains(&u) {
                CellStyle::crashed()
            } else {
                match sim.accepted(u) {
                    Some(v) if v.is_true() => {
                        CellStyle::wave(sim.accepted_wave(u).unwrap_or(0), 12)
                    }
                    Some(_) => CellStyle::forged(),
                    None => CellStyle::undecided(),
                }
            };
            map.set(u, style);
        }
        write(
            &dir.join("crash_barrier.svg"),
            map.render(&format!(
                "crash-stop: two height-r barriers isolate the band (coverage {:.2})",
                out.coverage()
            )),
        );
    }
}

//! Round-trip tests for the shipped `scenarios/*.scn` files: parse the
//! actual files, run them through the batch runner, and hold the
//! ported experiments to their Rust twins' numbers — most importantly
//! the Figure 2 goldens (2065 / 1947 / 947, stall 84), which must stay
//! bit-identical.

use bftbcast::prelude::*;

fn load(rel: &str) -> ScenarioFile {
    let path = format!("{}/../{rel}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    ScenarioFile::parse(&text).unwrap_or_else(|e| panic!("parsing {rel}: {e}"))
}

/// scenarios/f2.scn reproduces the paper's Figure 2 numbers exactly.
#[test]
fn f2_scn_round_trips_the_goldens() {
    let file = load("scenarios/f2.scn");
    assert_eq!(file.name, "f2");
    assert_eq!(file.engine, EngineKind::Counting);
    let report = run_file(&file).expect("f2 runs");
    assert_eq!(report.results.len(), 1);
    let result = &report.results[0];

    let outcome = result.outcome.as_counting().expect("counting outcome");
    assert_eq!(outcome.accepted_true, 84, "decided nodes at stall");
    assert!(!outcome.is_complete(), "broadcast must fail");
    assert!(outcome.is_correct(), "no forged acceptance");

    let gray = &result.probes[0];
    assert_eq!((gray.x, gray.y), (0, 5));
    assert_eq!(gray.probe.intake(), 2065, "gray-node intake");
    let p = &result.probes[1];
    assert_eq!((p.x, p.y), (5, 1));
    assert_eq!(p.probe.intake(), 1947, "copies delivered to p");
    assert_eq!(p.probe.tally_wrong, 947, "copies corrupted at p");
    assert_eq!(p.probe.accepted, None, "p undecided");
    assert_eq!(p.probe.decided_neighbors, 33, "decided neighbors of p");
}

/// The declarative f2 run and the hand-written EXP-F2 construction are
/// the same simulation: identical outcome, wave by wave.
#[test]
fn f2_scn_matches_the_programmatic_construction() {
    let file = load("scenarios/f2.scn");
    let report = run_file(&file).expect("f2 runs");
    let declarative = report.results[0].outcome.as_counting().unwrap().clone();

    let s = Scenario::builder(45, 45, 4)
        .faults(1, 1000)
        .lattice_placement_with_offset(41)
        .build()
        .unwrap();
    let proto = CountingProtocol::starved(s.grid(), s.params(), 59);
    let mut sim = s.counting_sim(proto);
    let programmatic = sim.run_oracle(s.params().mf);
    assert_eq!(declarative, programmatic);
}

/// scenarios/t1.scn: the band is starved iff m < m0 = 11.
#[test]
fn t1_scn_flips_exactly_at_m0() {
    let file = load("scenarios/t1.scn");
    let report = run_file(&file).expect("t1 runs");
    assert_eq!(report.results.len(), 5, "sweep m = [9, 10, 11, 12, 22]");
    for result in &report.results {
        let m: u64 = result.point[0].1.parse().unwrap();
        let o = result.outcome.as_counting().unwrap();
        assert!(o.is_correct(), "m = {m}");
        assert_eq!(
            o.is_complete(),
            m >= 11,
            "Theorem 1 threshold at m0 = 11; m = {m} gave coverage {}",
            o.coverage()
        );
    }
}

/// scenarios/x4.scn: the 121-schedule equivocation sweep shows the
/// cheap mode's split window — present, but a minority of schedules —
/// matching EXP-X4b's r = 2, t = 1, mf = 10 row.
#[test]
fn x4_scn_reproduces_the_split_window() {
    let file = load("scenarios/x4.scn");
    assert_eq!(file.engine, EngineKind::Agreement);
    let report = run_file(&file).expect("x4 runs");
    assert_eq!(report.results.len(), 121, "11x11 capacity schedules");
    let splits = report
        .results
        .iter()
        .filter(|r| !r.outcome.as_agreement().unwrap().agreement_holds())
        .count();
    assert!(splits > 0, "the split window is a documented finding");
    assert!(splits < 121 / 2, "splits are a minority ({splits}/121)");
}

/// Every shipped example scenario parses and runs; correctness (no
/// forged acceptance) holds everywhere the counting family runs.
#[test]
fn example_scenarios_parse_and_run() {
    for rel in [
        "scenarios/examples/stripe_chaos.scn",
        "scenarios/examples/hybrid_stripes.scn",
        "scenarios/examples/reactive_mixed.scn",
    ] {
        let file = load(rel);
        let report = run_file(&file).unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert!(!report.results.is_empty(), "{rel}");
        for result in &report.results {
            if let Some(o) = result.outcome.as_counting() {
                assert!(o.is_correct(), "{rel} point {:?}", result.point);
            }
        }
    }
}

/// Chaos fuzzing over stripes never defeats protocol B (Theorem 2
/// holds under any adversary) — the guarantee the stripe_chaos example
/// documents.
#[test]
fn stripe_chaos_example_upholds_theorem2() {
    let file = load("scenarios/examples/stripe_chaos.scn");
    let report = run_file(&file).unwrap();
    assert_eq!(report.results.len(), 8);
    for result in &report.results {
        let o = result.outcome.as_counting().unwrap();
        assert!(o.is_reliable(), "seed {:?}", result.point);
    }
}

/// scenarios/rbc-compare.scn: the three RBC protocols on one fixed
/// torus, fixed seed. All three deliver everywhere; the golden row
/// (EXPERIMENTS.md EXP-R1) pins messages / wire_bits / waves so the
/// runtime's accounting can never drift silently.
#[test]
fn rbc_compare_scn_round_trips_the_goldens() {
    let file = load("scenarios/rbc-compare.scn");
    assert_eq!(file.name, "rbc-compare");
    assert_eq!(file.engine, EngineKind::Rbc);
    let report = run_file(&file).expect("rbc-compare runs");
    assert_eq!(report.results.len(), 3, "counting | bracha | ctrbc");

    // (protocol, messages, wire_bits, waves) at seed 7.
    let goldens: [(&str, u64, u64, u64); 3] = [
        ("counting", 1784, 7_335_808, 9),
        ("bracha", 797_448, 3_279_106_176, 20),
        ("ctrbc", 801_016, 681_489_784, 20),
    ];
    for (result, (name, messages, wire_bits, waves)) in report.results.iter().zip(goldens) {
        assert_eq!(result.point[0], ("protocol".to_string(), name.to_string()));
        let o = result.outcome.as_rbc().unwrap_or_else(|| panic!("{name}"));
        assert!(o.is_reliable(), "{name} must deliver everywhere");
        assert_eq!(o.good_nodes, 223, "{name}");
        assert_eq!(
            (o.messages, o.wire_bits, o.waves),
            (messages, wire_bits, waves),
            "{name} golden"
        );
        // The probe list drops the (mute) Byzantine cell (3,3): only
        // the good node (7,2) answers, and it delivered.
        assert_eq!(result.probes.len(), 1, "{name}");
        let p = &result.probes[0];
        assert_eq!((p.x, p.y), (7, 2), "{name}");
        assert_eq!(p.probe.accepted, Some(Value::TRUE), "{name}");
    }

    // The comparison the scenario exists to make: agreement costs
    // quorums (bracha ≫ counting in both messages and bits), and
    // coding claws back most of the bits at the same message count.
    let by_name = |n: &str| {
        report
            .results
            .iter()
            .find(|r| r.point[0].1 == n)
            .and_then(|r| r.outcome.as_rbc())
            .unwrap()
    };
    let (counting, bracha, ctrbc) = (by_name("counting"), by_name("bracha"), by_name("ctrbc"));
    assert!(bracha.messages > 100 * counting.messages);
    assert!(
        ctrbc.wire_bits * 4 < bracha.wire_bits,
        "t + 1 = 3 fragments"
    );
    assert!(ctrbc.messages.abs_diff(bracha.messages) < bracha.messages / 100);
}

/// scenarios/rbc-adversary.scn: Bracha under two live equivocators,
/// swept across every delivery schedule × eight seeds. Agreement holds
/// at budget on all 40 points; the (seeded, seed 0) goldens (EXP-R2)
/// pin the outcome *and* the probed node's equivocation evidence.
#[test]
fn rbc_adversary_scn_round_trips_the_goldens() {
    let file = load("scenarios/rbc-adversary.scn");
    assert_eq!(file.name, "rbc-adversary");
    assert_eq!(file.engine, EngineKind::Rbc);
    let report = run_file(&file).expect("rbc-adversary runs");
    assert_eq!(report.results.len(), 40, "5 schedules x 8 seeds");

    for result in &report.results {
        let o = result.outcome.as_rbc().unwrap();
        assert!(
            o.is_reliable(),
            "equivocators at budget cannot block delivery: {:?}",
            result.point
        );
        assert_eq!(o.good_nodes, 47, "{:?}", result.point);
    }

    // The pinned point: schedule = "seeded", seed = 0.
    let golden = &report.results[0];
    assert_eq!(
        golden.point,
        vec![
            ("schedule".to_string(), "seeded".to_string()),
            ("seed".to_string(), "0".to_string()),
        ]
    );
    let o = golden.outcome.as_rbc().unwrap();
    assert_eq!(
        (o.messages, o.wire_bits, o.waves),
        (121_032, 63_904_896, 7),
        "seeded/0 golden"
    );
    let p = &golden.probes[0];
    assert_eq!((p.x, p.y), (3, 3));
    assert_eq!(p.probe.accepted, Some(Value::TRUE));
    assert_eq!(p.probe.phase, 3, "the probed node delivered");
    assert_eq!(
        p.probe.conflicts, 8,
        "split-brain votes leave pinned evidence at (3,3)"
    );

    // Latency is the axis the adversary owns: the delay-the-quorum
    // schedule stretches the same delivery to its deferral bound while
    // moving neither message nor bit totals (flooding is relay-once).
    let by_schedule = |name: &str| {
        report
            .results
            .iter()
            .find(|r| r.point[0].1 == name)
            .and_then(|r| r.outcome.as_rbc())
            .unwrap()
    };
    let (seeded, delayed, gst) = (
        by_schedule("seeded"),
        by_schedule("delay_quorum"),
        by_schedule("gst"),
    );
    assert!(delayed.waves > 4 * seeded.waves, "deferral stretches waves");
    assert!(
        gst.waves > seeded.waves,
        "partial synchrony delays the tail"
    );
    assert_eq!(delayed.messages, seeded.messages);
    assert_eq!(delayed.wire_bits, seeded.wire_bits);
}

/// JSON-lines output is one valid self-describing object per point
/// (spot-checked shape; full schema in EXPERIMENTS.md).
#[test]
fn jsonl_stream_shape() {
    let file = load("scenarios/t1.scn");
    let report = run_file(&file).unwrap();
    let jsonl = report.jsonl();
    assert_eq!(jsonl.lines().count(), report.results.len());
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"scenario\":\"t1\""), "{line}");
        assert!(line.contains("\"engine\":\"counting\""), "{line}");
        assert!(line.contains("\"point\":{\"m\":"), "{line}");
        assert!(
            line.contains("\"outcome\":{\"kind\":\"counting\""),
            "{line}"
        );
        assert!(line.ends_with("}"), "{line}");
    }
}

/// A lattice placement needs torus sides divisible by `2r+1` and at
/// most `(2r+1)²` residue classes from its offset. Every entry path
/// rejects a misfit with a `ScenarioError` naming the placement,
/// never a panic inside the placement: parsing (what `validate` runs),
/// running a point, a `--set` override, the scenario builder and the
/// spec builder.
#[test]
fn lattice_misfits_are_placement_errors_not_panics() {
    let scn = |side: u32| {
        format!(
            "name = \"lattice\"\nengine = \"counting\"\n\
             [topology]\nside = {side}\nr = 1\n\
             [faults]\nt = 1\nmf = 4\n\
             [placement]\nkind = \"lattice\"\n\
             [protocol]\nkind = \"starved\"\nm = 3\n"
        )
    };
    let names_placement = |err: ScenarioError| {
        let text = err.to_string();
        assert!(
            matches!(&err, ScenarioError::Invalid { what, .. } if what.starts_with("placement")),
            "{text}"
        );
        assert!(text.contains("placement"), "{text}");
    };

    // validate: side 16 is not a multiple of 2r+1 = 3.
    names_placement(ScenarioFile::parse(&scn(16)).unwrap_err());

    // run: a hand-built point on side 16 errors at engine build.
    let file = ScenarioFile::parse(&scn(15)).expect("side 15 fits the lattice");
    assert!(run_file(&file).is_ok());
    let mut point = file.points().remove(0);
    point.width = 16;
    point.height = 16;
    match bftbcast::batch::run_point(&file, &point) {
        Err(e) => names_placement(e),
        Ok(_) => panic!("side-16 lattice point must be rejected"),
    }

    // run --set t=9: offset 1 + t = 10 classes exceed (2r+1)^2 = 9.
    let mut file = file;
    names_placement(
        file.override_base("t", bftbcast::scenario_file::AxisValue::Int(9))
            .unwrap_err(),
    );

    // The programmatic builder (the CLI's flag form) errors too.
    names_placement(
        Scenario::builder(16, 16, 1)
            .faults(1, 4)
            .lattice_placement()
            .build()
            .unwrap_err(),
    );

    // EngineSpec::finish, both misfits.
    names_placement(
        bftbcast::EngineSpec::counting(16, 16, 1)
            .faults(1, 4)
            .lattice()
            .finish()
            .unwrap_err(),
    );
    names_placement(
        bftbcast::EngineSpec::counting(15, 15, 1)
            .faults(1, 4)
            .lattice_offset(9)
            .finish()
            .unwrap_err(),
    );
}

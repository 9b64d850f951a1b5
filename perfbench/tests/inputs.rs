//! Seeded inputs: determinism, novelty within a run, and structural
//! novelty of every session edit.

use std::collections::HashSet;

use perfbench::inputs::{
    cold_request, mp3_eval_params, mp3_points, session_create_body, session_edit,
    session_edit_body, SessionProgram, SESSION_FUNCTIONS,
};
use tlm_apps::Mp3Params;
use tlm_json::Value;
use tlm_pipeline::Pipeline;
use tlm_session::{SessionStore, SourceEdit, SweepPoint};

/// Every input of a seed, concatenated: the first cold requests, the
/// session program and its first edits, and the MP3 bitstream seed.
fn all_inputs(seed: u64) -> String {
    let mut out = format!("{:?}\n", mp3_eval_params(seed));
    for i in 0..16 {
        out.push_str(&cold_request(seed, i).body);
    }
    let mut program = SessionProgram::initial(seed);
    out.push_str(&session_create_body(&program));
    for i in 0..32 {
        let (f, body) = session_edit(seed, i);
        program.bodies[f] = body;
        out.push_str(&session_edit_body(&program.source()));
    }
    out
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for seed in [0, 1, 42, u64::MAX] {
        assert_eq!(all_inputs(seed), all_inputs(seed), "seed {seed}");
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    let a = all_inputs(1);
    let b = all_inputs(2);
    assert_ne!(a, b);
    assert_ne!(mp3_eval_params(1), mp3_eval_params(2));
    assert_ne!(cold_request(1, 0).body, cold_request(2, 0).body);
    assert_ne!(SessionProgram::initial(1), SessionProgram::initial(2));
    assert_ne!(session_edit(1, 0), session_edit(2, 0));
}

#[test]
fn seed_zero_is_the_tables_evaluation_input() {
    assert_eq!(mp3_eval_params(0), Mp3Params::evaluation());
    for seed in 0..1000 {
        assert!(mp3_eval_params(seed).seed > 0, "bitstream seeds stay positive");
    }
    assert_eq!(mp3_points().len(), 20);
}

#[test]
fn cold_requests_never_repeat_a_mode_name_or_source() {
    let (mut modes, mut sources) = (HashSet::new(), HashSet::new());
    for i in 0..3000 {
        let req = cold_request(7, i);
        assert!(modes.insert(req.mode_name.clone()), "mode name repeats at {i}");
        assert!(sources.insert(req.source.clone()), "source repeats at {i}");
        if i < 4 {
            let body = tlm_json::parse(&req.body).expect("body is JSON");
            assert!(req.body.contains(&req.mode_name));
            assert_eq!(body.get("sweep").and_then(Value::as_array).map(|s| s.len()), Some(5));
        }
    }
}

#[test]
fn every_session_edit_is_structurally_novel() {
    let pipeline = Pipeline::new();
    let mut program = SessionProgram::initial(3);
    let mut seen = HashSet::new();
    let keys_of = |program: &SessionProgram| -> Vec<Vec<u8>> {
        let artifact = pipeline.frontend(&program.source()).expect("source lowers");
        let prepared = pipeline.prepared(&artifact).expect("prepares");
        (0..SESSION_FUNCTIONS)
            .map(|f| {
                let fid = artifact.module().function_id(&format!("f{f}")).expect("function");
                prepared.function_structural_key(fid).to_vec()
            })
            .collect()
    };
    seen.extend(keys_of(&program));
    for i in 0..400 {
        let (f, body) = session_edit(3, i);
        program.bodies[f] = body;
        let key = keys_of(&program).swap_remove(f);
        assert!(seen.insert(key), "edit {i} restores a structure already seen");
    }
}

#[test]
fn each_session_edit_dirties_exactly_one_function() {
    let pipeline = Pipeline::new();
    let mut program = SessionProgram::initial(5);
    let root = tlm_json::parse(&session_create_body(&program)).expect("create body is JSON");
    let design =
        pipeline.design_from_value(root.get("platform").expect("platform")).expect("decodes");
    let sweep = vec![SweepPoint { label: "8k/4k".into(), icache: 8 << 10, dcache: 4 << 10 }];
    let store = SessionStore::new(u64::MAX, std::time::Duration::from_secs(600));
    let (id, _) = store.create(&pipeline, &design, sweep, false).expect("session opens");
    for i in 0..24 {
        let (f, body) = session_edit(5, i);
        program.bodies[f] = body;
        let rows_before = pipeline.stats().rows.misses;
        let (report, _) = store
            .edit(&pipeline, id, "main", &SourceEdit::Full(&program.source()))
            .expect("edit applies");
        assert_eq!(report.dirty_functions, 1, "edit {i}");
        assert_eq!(pipeline.stats().rows.misses - rows_before, 1, "edit {i} misses one row");
    }
}

//! Validator tests on a protocol written in the DSL: the toy validates,
//! and each single edit of its lowered IR that breaks a rule is rejected.

use protogen_spec::{
    Access, Effect, EntryNote, MsgClass, MsgDecl, Perm, SpecError, Ssp, SspEntry, StableId, Trigger,
};

fn toy() -> Ssp {
    protogen_dsl::parse_protocol(include_str!("toy.pgen")).expect("toy protocol should validate")
}

#[test]
fn valid_toy_passes() {
    toy().validate().expect("toy protocol should validate");
}

#[test]
fn duplicate_message_name_rejected() {
    let mut ssp = toy();
    ssp.messages.push(MsgDecl::new("Get", MsgClass::Request));
    assert!(matches!(ssp.validate(), Err(SpecError::DuplicateName(_))));
}

#[test]
fn directory_access_trigger_rejected() {
    let mut ssp = toy();
    ssp.directory.entries.push(SspEntry {
        state: StableId(0),
        trigger: Trigger::Access(Access::Load),
        guards: vec![],
        effect: Effect::Local { actions: vec![], next: None },
        note: EntryNote::Demand,
    });
    let err = ssp.validate().unwrap_err();
    assert!(err.to_string().contains("accesses"));
}

#[test]
fn readable_state_without_data_rejected() {
    // Fuzz regression (seed 1, mutant 4: `flip-permission 0` on MSI):
    // granting I read permission while it holds no data used to survive
    // validation and generate controllers whose IS_D hit arcs failed at
    // run time with "load on invalid data". The contradiction must be
    // rejected at build, naming the state.
    let mut ssp = toy();
    ssp.cache.states[0].perm = Perm::Read; // I: perm R, data_valid false
    let err = ssp.validate().unwrap_err();
    assert!(err.to_string().contains("`I`"), "{err}");
    assert!(err.to_string().contains("no valid data"), "{err}");
}

#[test]
fn out_of_range_state_rejected() {
    let mut ssp = toy();
    ssp.cache.entries.push(SspEntry {
        state: StableId(99),
        trigger: Trigger::Access(Access::Load),
        guards: vec![],
        effect: Effect::Local { actions: vec![], next: None },
        note: EntryNote::Demand,
    });
    assert!(ssp.validate().is_err());
}

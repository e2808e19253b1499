//! The legacy JSON snapshot writer (v1/v2). The library only *decodes*
//! these documents — persisted checkpoints and the committed golden
//! fixtures must revive forever — so the one writer left lives here,
//! in the test tree, where the fixtures and the legacy-dialect tests
//! need it.

use foreco_robot::{ArmModel, RobotDriver};
use foreco_serve::snapshot::SourceState;
use foreco_serve::SessionSnapshot;

/// `snapshot` (an inline scripted one) as a v1/v2 writer produced it:
/// those versions always carried reference driver state. It is the
/// state of a standalone driver on `model` fed the script's first
/// `tick` rows, which is what the writer's live reference driver held.
// The net crate's gateway test includes this module for `render` alone.
#[allow(dead_code)]
pub fn with_reference(mut snapshot: SessionSnapshot, model: &ArmModel) -> SessionSnapshot {
    let SourceState::Scripted { commands, .. } = &snapshot.source else {
        panic!("a legacy donor carries its script inline");
    };
    let mut driver = RobotDriver::new(model.clone(), snapshot.driver, &model.clamp(&commands[0]));
    for row in &commands[..snapshot.tick as usize] {
        driver.tick(Some(row));
    }
    snapshot.reference = Some(driver.export_state());
    snapshot
}

/// Renders `snapshot` as a legacy JSON document, stamped v2 (or v1 when
/// `snapshot.version` already says 1). Self-contained snapshots are
/// layout-identical across v1/v2, so the stamp is the only difference.
pub fn render(snapshot: &SessionSnapshot) -> Vec<u8> {
    let mut legacy = snapshot.clone();
    legacy.version = legacy.version.min(2);
    serde_json::to_string(&legacy)
        .expect("snapshot serialisation is infallible")
        .into_bytes()
}

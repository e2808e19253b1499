//! The legacy JSON snapshot writer (v1/v2). The library only *decodes*
//! these documents — persisted checkpoints and the committed golden
//! fixtures must revive forever — so the one writer left lives here,
//! in the test tree, where the fixtures and the legacy-dialect tests
//! need it.

use foreco_serve::SessionSnapshot;

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

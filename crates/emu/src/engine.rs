//! Execution-engine selection: [`EngineKind`] and the `TYTAN_EXEC_ENGINE`
//! selector that picks the default for [`MachineConfig::engine`].
//!
//! The run loops themselves live on the [`Machine`]; this module only
//! names them and resolves which one a new machine uses.

#[cfg(doc)]
use crate::{Machine, MachineConfig};
use std::sync::OnceLock;

/// Which run loop [`Machine::run`] uses. Both are cycle- and
/// state-identical; see [`MachineConfig::engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The original per-instruction reference loop: poll every device and
    /// re-check every boundary condition between each instruction, with
    /// the EA-MPU decision cache off.
    Legacy,
    /// The block translation engine: basic blocks discovered at execution
    /// time are compiled to threaded code with pre-decoded operands,
    /// pre-summed cycle costs and pre-resolved EA-MPU decisions, cached
    /// by entry address, invalidated on self-modifying writes and any
    /// MPU/platform reconfiguration. Falls back to [`Machine::step`]
    /// wherever a block cannot be (or is not worth) compiling. The
    /// default.
    Translated,
}

impl EngineKind {
    /// Every engine, reference loop first.
    pub const ALL: [EngineKind; 2] = [EngineKind::Legacy, EngineKind::Translated];

    /// Stable engine name, as accepted by `TYTAN_EXEC_ENGINE`.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Legacy => "legacy",
            EngineKind::Translated => "translated",
        }
    }
}

/// Resolves the engine choice from the `TYTAN_EXEC_ENGINE` value
/// (`legacy`/`translated`). Unset or unrecognised values fall through
/// to the default, [`EngineKind::Translated`].
pub fn engine_from_env(exec_engine: Option<&str>) -> EngineKind {
    let wanted = exec_engine.map(str::trim);
    EngineKind::ALL
        .into_iter()
        .find(|kind| Some(kind.name()) == wanted)
        .unwrap_or(EngineKind::Translated)
}

/// Default for [`MachineConfig::engine`], resolved once per process from
/// `TYTAN_EXEC_ENGINE` (see [`engine_from_env`]). CI runs the whole
/// workspace test suite once per engine so every loop stays exercised
/// end-to-end; the result is cached for the process because a test
/// binary must not see the default flip mid-run.
pub(crate) fn engine_default() -> EngineKind {
    static ENGINE: OnceLock<EngineKind> = OnceLock::new();
    *ENGINE.get_or_init(|| engine_from_env(std::env::var("TYTAN_EXEC_ENGINE").ok().as_deref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_names_round_trip_through_the_env_selector() {
        for kind in EngineKind::ALL {
            assert_eq!(engine_from_env(Some(kind.name())), kind);
        }
    }

    #[test]
    fn exec_engine_selector_defaults_to_the_translator() {
        assert_eq!(engine_from_env(Some("legacy")), EngineKind::Legacy);
        assert_eq!(engine_from_env(Some(" legacy ")), EngineKind::Legacy);
        assert_eq!(engine_from_env(Some("translated")), EngineKind::Translated);
        // Unset and unknown values fall back to the default engine,
        // including `fast`, which no longer names an engine.
        assert_eq!(engine_from_env(None), EngineKind::Translated);
        assert_eq!(engine_from_env(Some("fast")), EngineKind::Translated);
        for unknown in ["turbo", "", "0", "off"] {
            assert_eq!(engine_from_env(Some(unknown)), EngineKind::Translated);
        }
    }
}

//! The runtime crate's one environment knob, read and parsed in one
//! place.
//!
//! `RAXPP_TRANSPORT` is read where a `Runtime` is constructed without a
//! named fabric. Unset or blank selects the default; a value that is
//! set but not one of the accepted forms panics there, naming the
//! variable, the value and the forms — a mistyped knob must not quietly
//! select the default (`RAXPP_TRANSPORT=sockets` would otherwise run the
//! socket gate of `scripts/verify.sh` without touching a socket). The
//! knob's row is in the knob table of `docs/observability.md`.

use crate::transport::TransportKind;

const VAR: &str = "RAXPP_TRANSPORT";
const ACCEPTED: &str = "one of mpsc|thread, socket|uds|unix, tcp";

/// The actor fabric `RAXPP_TRANSPORT` names.
///
/// # Panics
///
/// Panics when the variable is set, non-blank and not an accepted form.
pub(crate) fn transport() -> TransportKind {
    parse(std::env::var(VAR).ok().as_deref())
}

fn parse(raw: Option<&str>) -> TransportKind {
    let Some(v) = raw.map(str::trim).filter(|v| !v.is_empty()) else {
        return TransportKind::Mpsc;
    };
    match v.to_ascii_lowercase().as_str() {
        "mpsc" | "thread" => TransportKind::Mpsc,
        "socket" | "uds" | "unix" => TransportKind::UnixSocket,
        "tcp" => TransportKind::Tcp,
        _ => panic!("{VAR}={v:?} is not {ACCEPTED}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TransportKind::{Mpsc, Tcp, UnixSocket as Uds};

    /// Unset, empty and blank give the default; every accepted form
    /// parses; a mistyped value is refused with the variable, the value
    /// and the accepted forms in the message.
    #[test]
    fn knob_table() {
        for raw in [None, Some(""), Some("  ")] {
            assert_eq!(parse(raw), Mpsc, "{raw:?}");
        }
        let forms = [
            ("mpsc", Mpsc),
            ("thread", Mpsc),
            ("socket", Uds),
            ("UDS", Uds),
            ("unix", Uds),
            (" tcp ", Tcp),
        ];
        for (raw, want) in forms {
            assert_eq!(parse(Some(raw)), want, "{raw}");
        }
        let message = *std::panic::catch_unwind(|| parse(Some("sockets")))
            .expect_err("a mistyped value must be refused")
            .downcast::<String>()
            .expect("panic carries a String");
        for part in [VAR, "sockets", ACCEPTED] {
            assert!(message.contains(part), "{message:?} does not name {part:?}");
        }
    }
}

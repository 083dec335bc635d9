//! The runtime crate's environment knobs, read and parsed in one place.
//!
//! Each knob is read once, where a `Runtime` is constructed. Unset or
//! empty selects the default; a value that is set but not one of the
//! accepted forms panics there, naming the variable, the value and the
//! forms — a mistyped knob must not quietly select the default
//! (`RAXPP_TRANSPORT=sockets` would otherwise run the socket gate of
//! `scripts/verify.sh` without touching a socket). Names, defaults and
//! meanings are the rows of the knob table in `docs/observability.md`.

use std::time::Duration;

use crate::transport::TransportKind;

/// One environment variable: its name, the forms it accepts (for the
/// panic message), its default, and the parser of one non-blank value.
#[derive(Clone, Copy)]
pub(crate) struct Knob<T> {
    var: &'static str,
    accepted: &'static str,
    default: T,
    form: fn(&str) -> Option<T>,
}

impl<T> Knob<T> {
    /// The knob's value in the process environment.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set, non-blank and not an accepted
    /// form.
    pub(crate) fn read(self) -> T {
        let raw = std::env::var(self.var).ok();
        self.parse(raw.as_deref())
    }

    fn parse(self, raw: Option<&str>) -> T {
        match raw.map(str::trim).filter(|v| !v.is_empty()) {
            None => self.default,
            Some(v) => (self.form)(v)
                .unwrap_or_else(|| panic!("{}={v:?} is not {}", self.var, self.accepted)),
        }
    }
}

/// The actor fabric when the caller names none.
pub(crate) const TRANSPORT: Knob<TransportKind> = Knob {
    var: "RAXPP_TRANSPORT",
    accepted: "one of mpsc|thread, socket|uds|unix, tcp",
    default: TransportKind::Mpsc,
    form: |v| match v.to_ascii_lowercase().as_str() {
        "mpsc" | "thread" => Some(TransportKind::Mpsc),
        "socket" | "uds" | "unix" => Some(TransportKind::UnixSocket),
        "tcp" => Some(TransportKind::Tcp),
        _ => None,
    },
};

/// Whether a fresh runtime traces every step.
pub(crate) const TRACE: Knob<bool> = Knob {
    var: "RAXPP_TRACE",
    accepted: "one of 1|true|on, 0|false|off",
    default: false,
    form: |v| match v.to_ascii_lowercase().as_str() {
        "1" | "true" | "on" => Some(true),
        "0" | "false" | "off" => Some(false),
        _ => None,
    },
};

/// The driver's reply-timeout backstop — the last-resort bound when the
/// abort protocol itself is broken.
pub(crate) const STEP_TIMEOUT: Knob<Duration> = Knob {
    var: "RAXPP_STEP_TIMEOUT_MS",
    accepted: "a whole number of milliseconds",
    default: Duration::from_millis(60_000),
    form: |v| v.parse().ok().map(Duration::from_millis),
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Unset, empty and blank give the default; every `good` form
    /// parses; every `garbage` value is refused with the variable, the
    /// value and the accepted forms in the message.
    fn check<T: Copy + PartialEq + std::fmt::Debug + std::panic::UnwindSafe>(
        knob: Knob<T>,
        good: &[(&str, T)],
        garbage: &[&'static str],
    ) {
        for raw in [None, Some(""), Some("  ")] {
            assert_eq!(knob.parse(raw), knob.default, "{} {raw:?}", knob.var);
        }
        for &(raw, want) in good {
            assert_eq!(knob.parse(Some(raw)), want, "{}={raw}", knob.var);
        }
        for &raw in garbage {
            let message = *std::panic::catch_unwind(move || knob.parse(Some(raw)))
                .expect_err("a mistyped value must be refused")
                .downcast::<String>()
                .expect("panic carries a String");
            for part in [knob.var, raw, knob.accepted] {
                assert!(message.contains(part), "{message:?} does not name {part:?}");
            }
        }
    }

    #[test]
    fn knob_table() {
        use TransportKind::{Mpsc, Tcp, UnixSocket as Uds};
        let fabrics = [("mpsc", Mpsc), ("thread", Mpsc), ("tcp", Tcp)];
        check(TRANSPORT, &fabrics, &["sockets"]);
        check(
            TRANSPORT,
            &[("socket", Uds), ("UDS", Uds), ("unix", Uds)],
            &[],
        );
        check(
            TRACE,
            &[("1", true), ("true", true), ("ON", true)],
            &["yes"],
        );
        check(
            TRACE,
            &[("0", false), ("false", false), ("off", false)],
            &[],
        );
        let ms = Duration::from_millis;
        let good = [(" 40 ", ms(40)), ("0", ms(0))];
        check(STEP_TIMEOUT, &good, &["5s", "abc", "-1", "1.5"]);
        // The default docs/observability.md documents.
        assert_eq!(STEP_TIMEOUT.default, ms(60_000));
    }
}

//! Minimal offline failpoint registry — the workspace's fault-injection
//! switchboard, modelled on the crates.io `fail` crate but rebuilt here so
//! the tree keeps building with no network access.
//!
//! A **failpoint** is a named site in production code (`service.write`,
//! `shard.submit`, `container.frame`, ...) that asks the registry what — if
//! anything — to inject before doing its real work.  With no configuration
//! the whole machinery collapses to one relaxed atomic load and a branch,
//! so instrumented hot paths cost nothing in normal operation.
//!
//! Configuration comes from the `GLD_FAILPOINTS` environment variable (read
//! once, on first use) or programmatically via [`configure`] (tests):
//!
//! ```text
//! GLD_FAILPOINTS="service.write=err_io:10%;shard.submit=delay:50ms;container.frame=corrupt:1"
//! ```
//!
//! Each `name=action` pair arms one failpoint.  Actions:
//!
//! | action     | effect at the instrumented site                          |
//! |------------|----------------------------------------------------------|
//! | `err_io`   | a hard I/O error (`ErrorKind::Other`)                    |
//! | `err_intr` | a transient `ErrorKind::Interrupted` (callers retry)     |
//! | `delay:DUR`| sleep for `DUR` (`50ms`, `2s`)                           |
//! | `corrupt`  | flip a byte in the data the site is handling             |
//! | `panic`    | panic at the site (exercises crash paths such as the     |
//! |            | flight recorder's panic-hook dump)                       |
//! | `off`      | disarm (useful to override an inherited env var)         |
//!
//! Any action takes optional modifiers, `:`-separated in any order:
//! `P%` fires with probability `P` (deterministic xorshift stream, seeded
//! by `GLD_FAILPOINTS_SEED`), and a bare integer `N` caps the total number
//! of firings.  `corrupt:1` therefore means "corrupt exactly once".
//!
//! Every firing is counted — [`total_hits`] and [`hits`] let services
//! surface fault counters through their own metrics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Duration;

/// What an armed failpoint injects when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// A hard I/O failure: the site should behave as if the underlying
    /// operation returned `ErrorKind::Other`.
    ErrIo,
    /// A transient failure: the site should behave as if the operation
    /// returned `ErrorKind::Interrupted` (well-written loops retry).
    ErrInterrupted,
    /// Sleep for the given duration before the real operation.
    Delay(Duration),
    /// Flip a byte in whatever data the site is producing or consuming.
    Corrupt,
}

/// One armed failpoint's state.
#[derive(Clone, Debug)]
struct Point {
    /// `None` is the `panic` pseudo-action, handled inside [`check`] so
    /// every instrumented site supports it without a match arm.
    action: Option<Action>,
    /// Firing probability in [0, 1] (1 = always).
    probability: f64,
    /// Remaining firings, `None` = unlimited.
    remaining: Option<u64>,
    hits: u64,
}

/// The armed configuration plus the deterministic jitter stream.
#[derive(Debug, Default)]
struct Registry {
    points: HashMap<String, Point>,
    rng: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();
static TOTAL_HITS: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var("GLD_FAILPOINTS") {
            // NOT `configure` — that re-arms ENV_INIT's own `Once` from
            // inside this closure, and a recursive `call_once` deadlocks.
            if let Err(e) = install(&spec) {
                // A typo'd spec must be loud, not silently fault-free.
                eprintln!("GLD_FAILPOINTS ignored: {e}");
            }
        }
    });
}

/// Whether any failpoint is armed.  This is the fast path every
/// instrumented site takes: one relaxed load (after a one-time env parse).
pub fn active() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Parses and installs a failpoint spec (see the crate docs for the
/// grammar), replacing any previous configuration.  An empty spec disarms
/// everything.  Mainly for tests; production configuration arrives through
/// the `GLD_FAILPOINTS` environment variable.
pub fn configure(spec: &str) -> Result<(), String> {
    // Make sure the env `Once` is burned so a later `active()` cannot
    // clobber a programmatic configuration with the env var.
    ENV_INIT.call_once(|| {});
    install(spec)
}

/// The body of [`configure`], shared with the one-time env-var bootstrap.
/// Must never touch `ENV_INIT`: [`init_from_env`] calls this from inside
/// the `Once` closure, where re-entering `call_once` is a self-deadlock.
fn install(spec: &str) -> Result<(), String> {
    let mut points = HashMap::new();
    for pair in spec.split(';') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (name, action) = pair
            .split_once('=')
            .ok_or_else(|| format!("failpoint {pair:?} is not name=action"))?;
        match parse_action(action.trim())? {
            Some(point) => {
                points.insert(name.trim().to_string(), point);
            }
            None => {
                points.remove(name.trim());
            }
        }
    }
    let seed = std::env::var("GLD_FAILPOINTS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x9E37_79B9_7F4A_7C15u64);
    let armed = !points.is_empty();
    let mut registry = registry().lock().unwrap_or_else(|e| e.into_inner());
    registry.points = points;
    registry.rng = seed | 1;
    drop(registry);
    ENABLED.store(armed, Ordering::Relaxed);
    Ok(())
}

/// Parses one action spec (`err_io:10%`, `delay:50ms`, `corrupt:1`, `off`).
/// `Ok(None)` means the point is explicitly disarmed.
fn parse_action(spec: &str) -> Result<Option<Point>, String> {
    let mut tokens = spec.split(':');
    let kind = tokens.next().unwrap_or_default();
    let mut delay = None;
    let mut probability = 1.0f64;
    let mut remaining = None;
    for token in tokens {
        let token = token.trim();
        if let Some(percent) = token.strip_suffix('%') {
            let p: f64 = percent
                .parse()
                .map_err(|_| format!("bad probability {token:?}"))?;
            if !(0.0..=100.0).contains(&p) {
                return Err(format!("probability {token:?} outside 0..=100"));
            }
            probability = p / 100.0;
        } else if let Some(ms) = token.strip_suffix("ms") {
            let v: u64 = ms.parse().map_err(|_| format!("bad duration {token:?}"))?;
            delay = Some(Duration::from_millis(v));
        } else if let Some(s) = token.strip_suffix('s') {
            let v: u64 = s.parse().map_err(|_| format!("bad duration {token:?}"))?;
            delay = Some(Duration::from_secs(v));
        } else if let Ok(count) = token.parse::<u64>() {
            remaining = Some(count);
        } else {
            return Err(format!("unknown action modifier {token:?}"));
        }
    }
    let action = match kind {
        "off" => return Ok(None),
        "err_io" => Some(Action::ErrIo),
        "err_intr" | "err_interrupted" => Some(Action::ErrInterrupted),
        "delay" => Some(Action::Delay(
            delay.ok_or("delay takes a duration, e.g. delay:50ms")?,
        )),
        "corrupt" => Some(Action::Corrupt),
        "panic" => None,
        other => return Err(format!("unknown failpoint action {other:?}")),
    };
    Ok(Some(Point {
        action,
        probability,
        remaining,
        hits: 0,
    }))
}

/// Asks whether the failpoint `name` fires right now.  `None` when the
/// registry is disabled, the point is not armed, its probability says not
/// this time, or its firing budget is spent.  A returned action is counted
/// as one hit.
pub fn check(name: &str) -> Option<Action> {
    if !active() {
        return None;
    }
    let mut registry = registry().lock().unwrap_or_else(|e| e.into_inner());
    // Advance the shared xorshift stream for the roll.
    registry.rng ^= registry.rng << 13;
    registry.rng ^= registry.rng >> 7;
    registry.rng ^= registry.rng << 17;
    let roll = (registry.rng >> 11) as f64 / (1u64 << 53) as f64;
    let point = registry.points.get_mut(name)?;
    if point.probability < 1.0 && roll >= point.probability {
        return None;
    }
    if let Some(remaining) = &mut point.remaining {
        if *remaining == 0 {
            return None;
        }
        *remaining -= 1;
    }
    point.hits += 1;
    TOTAL_HITS.fetch_add(1, Ordering::Relaxed);
    let action = point.action;
    if action.is_none() {
        // The `panic` pseudo-action: unwind from here so the site never
        // needs its own arm.  The registry lock is released first — a
        // panic hook dumping diagnostics may want `total_hits`.
        drop(registry);
        panic!("injected panic at failpoint {name}");
    }
    action
}

/// Total firings across every failpoint since process start (monotonic,
/// survives reconfiguration) — what services surface as their
/// faults-injected counter.
pub fn total_hits() -> u64 {
    TOTAL_HITS.load(Ordering::Relaxed)
}

/// Firings of one named failpoint under the *current* configuration
/// (reset by [`configure`]).
pub fn hits(name: &str) -> u64 {
    let registry = registry().lock().unwrap_or_else(|e| e.into_inner());
    registry.points.get(name).map_or(0, |p| p.hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so every test goes through this one
    // entry point to avoid interleaving configurations.
    fn with_config<R>(spec: &str, f: impl FnOnce() -> R) -> R {
        static GATE: Mutex<()> = Mutex::new(());
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        configure(spec).expect("test spec parses");
        let out = f();
        configure("").expect("disarm");
        out
    }

    #[test]
    fn disabled_registry_fires_nothing() {
        with_config("", || {
            assert!(!active());
            assert_eq!(check("service.write"), None);
        });
    }

    #[test]
    fn always_on_point_fires_and_counts() {
        with_config("service.write=err_io", || {
            assert!(active());
            assert_eq!(check("service.write"), Some(Action::ErrIo));
            assert_eq!(check("service.read"), None, "unarmed points stay quiet");
            assert_eq!(hits("service.write"), 1);
            assert!(total_hits() >= 1);
        });
    }

    #[test]
    fn count_cap_limits_firings() {
        with_config("container.frame=corrupt:2", || {
            assert_eq!(check("container.frame"), Some(Action::Corrupt));
            assert_eq!(check("container.frame"), Some(Action::Corrupt));
            assert_eq!(check("container.frame"), None, "budget spent");
            assert_eq!(hits("container.frame"), 2);
        });
    }

    #[test]
    fn probability_is_roughly_respected() {
        with_config("shard.submit=delay:1ms:25%", || {
            let fired = (0..400).filter(|_| check("shard.submit").is_some()).count();
            assert!(
                (40..=160).contains(&fired),
                "25% over 400 trials fired {fired} times"
            );
        });
    }

    #[test]
    fn durations_parse_in_ms_and_s() {
        with_config("a=delay:50ms;b=delay:2s", || {
            assert_eq!(check("a"), Some(Action::Delay(Duration::from_millis(50))));
            assert_eq!(check("b"), Some(Action::Delay(Duration::from_secs(2))));
        });
    }

    #[test]
    fn off_disarms_and_bad_specs_are_typed_errors() {
        // Every `configure` call stays inside the gate: one after it would
        // reset the registry under whichever test holds the gate next.
        with_config("a=err_io;a=off", || {
            assert!(!active(), "the later `off` wins and nothing is armed");
            assert!(configure("nonsense").is_err());
            assert!(configure("a=explode").is_err());
            assert!(configure("a=delay").is_err(), "delay needs a duration");
            assert!(configure("a=err_io:200%").is_err());
            configure("").unwrap();
        });
    }
}

//! Length-prefixed wire codec for the socket transport.
//!
//! Every frame on a transport stream is `u32` little-endian payload
//! length followed by the payload; the first payload byte is a frame
//! tag ([`HELLO`], [`DATA`], [`CMD`], [`REPLY`], [`HEARTBEAT`]). After
//! the handshake, every frame but a heartbeat carries one envelope
//! ([`encode`] / [`decode`]).
//!
//! The bytes go through the one codec the checkpoint files use too,
//! `raxpp_ir::bytes`: its reader bounds-checks every read, checks every
//! count against the bytes left before anything is sized from it, and
//! rejects a frame with bytes left over, so a frame is exactly one
//! envelope. The codec is *exact*: tensors travel as raw `f32` bit
//! patterns, so a value decoded on the far side is bitwise-identical to
//! the one encoded — the socket transport inherits the runtime's
//! bitwise-determinism contract from this property. What is the wire's
//! own lives here: the tags, a tensor's `u8` rank, actor ids, kind
//! bytes and [`EvalStats`].
//!
//! Actor ids are `u64` on the wire; the driver's pseudo-id
//! (`usize::MAX`) maps to `u64::MAX`. A span's or profile entry's kind
//! travels as its one [`Kind`] byte; a byte no kind has is a protocol
//! error like any other.

use std::io::{Read, Write};
use std::time::Duration;

use raxpp_ir::bytes::{Reader, Writer};
use raxpp_ir::{EvalStats, Tensor};
use raxpp_taskgraph::BufferId;

use crate::actor::{Command, ExecFailure, ExecOutcome, Msg, Payload, Reply, ReplyKind};
use crate::exec::ActorProfile;
use crate::fault::Fault;
use crate::kind::Kind;
use crate::store::SendToken;
use crate::trace::{ActorTrace, SpanEvent};

/// Handshake frame: `[HELLO][from: u64]`. Sent once by the dialing
/// side; tells the acceptor who is on the other end.
const HELLO: u8 = 0;
/// A data-plane [`Msg`] (tensor or abort poison).
const DATA: u8 = 1;
/// A driver→worker [`Command`].
const CMD: u8 = 2;
/// A worker→driver [`Reply`].
const REPLY: u8 = 3;
/// Worker liveness beacon toward the driver: `[HEARTBEAT][from: u64]`.
const HEARTBEAT: u8 = 4;

/// Upper bound on a single frame (1 GiB) — a corrupt length prefix
/// must not drive a giant allocation.
const MAX_FRAME: u32 = 1 << 30;

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame. Returns the total bytes written.
pub(crate) fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<u64> {
    let mut len = Writer::default();
    len.u32(payload.len() as u32);
    w.write_all(len.as_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(4 + payload.len() as u64)
}

/// Reads one length-prefixed frame. An EOF before the length prefix is
/// a clean close (`UnexpectedEof`); a frame longer than [`MAX_FRAME`]
/// is a protocol error.
pub(crate) fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = Reader::new(&len).u32().expect("4 bytes");
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

// ---------------------------------------------------------------------
// Wire fields over the shared codec
// ---------------------------------------------------------------------

type DecResult<T> = Result<T, String>;

/// A frame's writer, its tag written.
fn writer(tag: u8) -> Writer {
    let mut w = Writer::default();
    w.u8(tag);
    w
}

fn put_actor(w: &mut Writer, a: usize) {
    // usize::MAX (the driver pseudo-id) maps to u64::MAX.
    w.u64(if a == usize::MAX { u64::MAX } else { a as u64 });
}

fn actor(r: &mut Reader<'_>) -> DecResult<usize> {
    let v = r.u64()?;
    Ok(if v == u64::MAX {
        usize::MAX
    } else {
        v as usize
    })
}

/// A tensor on the wire: a `u8` rank, then the shared dims and payload.
fn put_tensor(w: &mut Writer, t: &Tensor) {
    w.u8(t.shape().rank() as u8);
    w.tensor(t);
}

/// At least its rank byte, for [`Reader::list`].
fn tensor(r: &mut Reader<'_>) -> DecResult<Tensor> {
    let rank = r.u8()?;
    Ok(r.tensor(rank.into())?.0)
}

fn kind(r: &mut Reader<'_>) -> DecResult<Kind> {
    let byte = r.u8()?;
    Kind::from_u8(byte).ok_or_else(|| format!("unknown span kind {byte}"))
}

fn put_stats(w: &mut Writer, s: &EvalStats) {
    w.u64(s.allocated);
    w.u64(s.reused);
    w.u64(s.freed);
}

fn stats(r: &mut Reader<'_>) -> DecResult<EvalStats> {
    Ok(EvalStats {
        allocated: r.u64()?,
        reused: r.u64()?,
        freed: r.u64()?,
    })
}

// ---------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------

/// Encodes an envelope as the frame it travels in: data and aborts as
/// [`DATA`], commands as [`CMD`], replies as [`REPLY`]. A departure has
/// no frame (`None`): the wire observes it as EOF.
///
/// The [`SendToken`] of a data payload never crosses the wire: the
/// sender completes its token after the synchronous frame write
/// succeeds, and the receiving pump mints a fresh one that the
/// receiver's `Recv` completes as usual (see `store.rs`).
pub(crate) fn encode(m: &Msg) -> Option<Vec<u8>> {
    let mut w = writer(DATA);
    match &m.payload {
        Payload::Data(epoch, buf, t, _token) => {
            put_actor(&mut w, m.from);
            w.u64(*epoch);
            w.u8(0);
            w.u32(buf.0);
            put_tensor(&mut w, t);
        }
        Payload::Abort(epoch, reason) => {
            put_actor(&mut w, m.from);
            w.u64(*epoch);
            w.u8(1);
            w.str(reason);
        }
        Payload::Command(c) => return Some(encode_command(c)),
        Payload::Reply(r) => return Some(encode_reply(r)),
        Payload::Gone(_) => return None,
    }
    Some(w.into_bytes())
}

/// Decodes one frame read from `from`'s link into the envelope it
/// carries — `None` for a heartbeat. A [`HELLO`] after the handshake
/// is a protocol error like any unknown tag.
pub(crate) fn decode(from: usize, frame: &[u8]) -> DecResult<Option<Msg>> {
    let mut r = Reader::new(frame);
    let on_link = |payload| Some(Msg { from, payload });
    let msg = match r.u8()? {
        DATA => {
            let from = actor(&mut r)?;
            let epoch = r.u64()?;
            let payload = match r.u8()? {
                0 => {
                    let buf = BufferId(r.u32()?);
                    Payload::Data(epoch, buf, tensor(&mut r)?, SendToken::new())
                }
                1 => Payload::Abort(epoch, r.str()?),
                k => return Err(format!("unknown payload kind {k}")),
            };
            Some(Msg { from, payload })
        }
        CMD => on_link(Payload::Command(decode_command(&mut r)?)),
        REPLY => on_link(Payload::Reply(decode_reply(&mut r)?)),
        HEARTBEAT => {
            actor(&mut r)?;
            None
        }
        tag => return Err(format!("unexpected frame tag {tag}")),
    };
    r.finish()?;
    Ok(msg)
}

// ---------------------------------------------------------------------
// Fault
// ---------------------------------------------------------------------

fn encode_fault(w: &mut Writer, f: &Fault) {
    match f {
        Fault::DieNow => w.u8(0),
        Fault::DieAtInstr(n) => {
            w.u8(1);
            w.u64(*n as u64);
        }
        Fault::ErrorAtInstr(n) => {
            w.u8(2);
            w.u64(*n as u64);
        }
        Fault::ErrorAtTask(s) => {
            w.u8(3);
            w.str(s);
        }
        Fault::KillNow => w.u8(4),
        Fault::KillAtInstr(n) => {
            w.u8(5);
            w.u64(*n as u64);
        }
        Fault::DropLink { peer } => {
            w.u8(6);
            put_actor(w, *peer);
        }
        Fault::DelayLink { peer, ms } => {
            w.u8(7);
            put_actor(w, *peer);
            w.u64(*ms);
        }
        Fault::Partition { to } => {
            w.u8(8);
            put_actor(w, *to);
        }
    }
}

fn decode_fault(r: &mut Reader<'_>) -> DecResult<Fault> {
    Ok(match r.u8()? {
        0 => Fault::DieNow,
        1 => Fault::DieAtInstr(r.u64()? as usize),
        2 => Fault::ErrorAtInstr(r.u64()? as usize),
        3 => Fault::ErrorAtTask(r.str()?),
        4 => Fault::KillNow,
        5 => Fault::KillAtInstr(r.u64()? as usize),
        6 => Fault::DropLink { peer: actor(r)? },
        7 => Fault::DelayLink {
            peer: actor(r)?,
            ms: r.u64()?,
        },
        8 => Fault::Partition { to: actor(r)? },
        k => return Err(format!("unknown fault kind {k}")),
    })
}

// ---------------------------------------------------------------------
// Command
// ---------------------------------------------------------------------

/// Buffers to insert into a store: `Place`'s payload and the data
/// inputs riding `Execute`.
fn encode_bufs(w: &mut Writer, bufs: &[(BufferId, Tensor)]) {
    w.list(bufs, |w, (b, t)| {
        w.u32(b.0);
        put_tensor(w, t);
    });
}

fn decode_bufs(r: &mut Reader<'_>) -> DecResult<Vec<(BufferId, Tensor)>> {
    // Buffer id + tensor rank: the least one entry occupies.
    r.list(4 + 1, |r| Ok((BufferId(r.u32()?), tensor(r)?)))
}

fn encode_command(c: &Command) -> Vec<u8> {
    let mut w = writer(CMD);
    match c {
        Command::Place { seq, bufs } => {
            w.u8(0);
            w.u64(*seq);
            encode_bufs(&mut w, bufs);
        }
        Command::Execute {
            seq,
            traced,
            inputs,
        } => {
            w.u8(1);
            w.u64(*seq);
            w.u8(*traced as u8);
            encode_bufs(&mut w, inputs);
        }
        Command::Fetch { seq, bufs } => {
            w.u8(2);
            w.u64(*seq);
            w.list(bufs, |w, b| w.u32(b.0));
        }
        Command::PeakBytes { seq } => {
            w.u8(3);
            w.u64(*seq);
        }
        Command::LiveBytes { seq } => {
            w.u8(4);
            w.u64(*seq);
        }
        Command::Reprogram { assign } => {
            w.u8(5);
            w.list(assign, |w, &a| w.u64(a as u64));
        }
        Command::InjectFault(f) => {
            w.u8(6);
            encode_fault(&mut w, f);
        }
        Command::HealWire => w.u8(7),
        Command::Shutdown => w.u8(8),
    }
    w.into_bytes()
}

fn decode_command(r: &mut Reader<'_>) -> DecResult<Command> {
    Ok(match r.u8()? {
        0 => Command::Place {
            seq: r.u64()?,
            bufs: decode_bufs(r)?,
        },
        1 => Command::Execute {
            seq: r.u64()?,
            traced: r.u8()? != 0,
            inputs: decode_bufs(r)?,
        },
        2 => Command::Fetch {
            seq: r.u64()?,
            bufs: r.list(4, |r| r.u32().map(BufferId))?,
        },
        3 => Command::PeakBytes { seq: r.u64()? },
        4 => Command::LiveBytes { seq: r.u64()? },
        5 => Command::Reprogram {
            assign: r.list(8, |r| r.u64().map(|a| a as usize))?,
        },
        6 => Command::InjectFault(decode_fault(r)?),
        7 => Command::HealWire,
        8 => Command::Shutdown,
        k => return Err(format!("unknown command kind {k}")),
    })
}

// ---------------------------------------------------------------------
// Reply
// ---------------------------------------------------------------------

fn encode_profile(w: &mut Writer, p: &ActorProfile) {
    w.u32(p.by_kind().count() as u32);
    for (kind, dur, count) in p.by_kind() {
        w.u8(kind as u8);
        w.u64(dur.as_nanos() as u64);
        w.u32(count);
    }
    put_stats(w, p.alloc_stats());
    w.u64(p.bytes_wire());
    w.u64(p.dp_bytes_wire());
}

fn decode_profile(r: &mut Reader<'_>) -> DecResult<ActorProfile> {
    let n = r.u32()? as usize;
    let mut p = ActorProfile::default();
    // The encoder writes each kind once; a repeat would add onto (and
    // could overflow) the first one's totals.
    let mut seen = [false; Kind::COUNT];
    for _ in 0..n {
        let kind = kind(r)?;
        if std::mem::replace(&mut seen[kind as usize], true) {
            return Err(format!("profile kind {} twice", kind.as_str()));
        }
        let dur = Duration::from_nanos(r.u64()?);
        let count = r.u32()?;
        p.add(kind, dur, count);
    }
    p.alloc = stats(r)?;
    p.bytes_wire = r.u64()?;
    p.dp_bytes_wire = r.u64()?;
    Ok(p)
}

fn encode_span(w: &mut Writer, s: &SpanEvent) {
    w.u32(s.instr);
    // A name outside the table (only a hand-built span can carry one)
    // encodes as a byte the decoder rejects.
    w.u8(Kind::parse(s.kind).map_or(u8::MAX, |k| k as u8));
    w.str(&s.name);
    w.u64(s.start_ns);
    w.u64(s.dur_ns);
    w.u64(s.bytes);
    match &s.alloc {
        Some(a) => {
            w.u8(1);
            put_stats(w, a);
        }
        None => w.u8(0),
    }
}

fn decode_span(r: &mut Reader<'_>) -> DecResult<SpanEvent> {
    let instr = r.u32()?;
    let kind = kind(r)?.as_str();
    let name = r.str()?;
    let start_ns = r.u64()?;
    let dur_ns = r.u64()?;
    let bytes = r.u64()?;
    let alloc = match r.u8()? {
        0 => None,
        _ => Some(stats(r)?),
    };
    Ok(SpanEvent {
        instr,
        kind,
        name,
        start_ns,
        dur_ns,
        bytes,
        alloc,
    })
}

fn encode_trace(w: &mut Writer, t: &ActorTrace) {
    put_actor(w, t.actor);
    w.u64(t.dropped);
    w.list(&t.spans, encode_span);
}

fn decode_trace(r: &mut Reader<'_>) -> DecResult<ActorTrace> {
    let actor = actor(r)?;
    let dropped = r.u64()?;
    // instr + kind + name length + three u64s + alloc flag.
    let spans = r.list(4 + 1 + 4 + 24 + 1, decode_span)?;
    Ok(ActorTrace {
        actor,
        spans,
        dropped,
    })
}

fn encode_reply(r: &Reply) -> Vec<u8> {
    let mut w = writer(REPLY);
    w.u64(r.seq);
    match &r.kind {
        ReplyKind::Placed => w.u8(0),
        ReplyKind::Executed(o) => {
            w.u8(1);
            match &o.result {
                Ok(p) => {
                    w.u8(0);
                    encode_profile(&mut w, p);
                }
                Err(ExecFailure::Error(m)) => {
                    w.u8(1);
                    w.str(m);
                }
                Err(ExecFailure::Aborted { by, reason }) => {
                    w.u8(2);
                    put_actor(&mut w, *by);
                    w.str(reason);
                }
            }
            w.list(&o.fetched, put_tensor);
            match &o.trace {
                Some(t) => {
                    w.u8(1);
                    encode_trace(&mut w, t);
                }
                None => w.u8(0),
            }
        }
        ReplyKind::Fetched(Ok(ts)) => {
            w.u8(2);
            w.u8(0);
            w.list(ts, put_tensor);
        }
        ReplyKind::Fetched(Err(m)) => {
            w.u8(2);
            w.u8(1);
            w.str(m);
        }
        ReplyKind::StoreBytes(b) => {
            w.u8(3);
            w.u64(*b as u64);
        }
    }
    w.into_bytes()
}

fn decode_reply(r: &mut Reader<'_>) -> DecResult<Reply> {
    let seq = r.u64()?;
    let kind = match r.u8()? {
        0 => ReplyKind::Placed,
        1 => {
            let result = match r.u8()? {
                0 => Ok(decode_profile(r)?),
                1 => Err(ExecFailure::Error(r.str()?)),
                2 => Err(ExecFailure::Aborted {
                    by: actor(r)?,
                    reason: r.str()?,
                }),
                k => return Err(format!("unknown exec result kind {k}")),
            };
            let fetched = r.list(1, tensor)?;
            let trace = match r.u8()? {
                0 => None,
                _ => Some(decode_trace(r)?),
            };
            ReplyKind::Executed(Box::new(ExecOutcome {
                result,
                fetched,
                trace,
            }))
        }
        2 => ReplyKind::Fetched(match r.u8()? {
            0 => Ok(r.list(1, tensor)?),
            _ => Err(r.str()?),
        }),
        3 => ReplyKind::StoreBytes(r.u64()? as usize),
        k => return Err(format!("unknown reply kind {k}")),
    };
    Ok(Reply { seq, kind })
}

/// Encodes a heartbeat beacon.
pub(crate) fn encode_heartbeat(from: usize) -> Vec<u8> {
    let mut w = writer(HEARTBEAT);
    put_actor(&mut w, from);
    w.into_bytes()
}

/// Encodes the [`HELLO`] handshake frame.
pub(crate) fn encode_hello(from: usize) -> Vec<u8> {
    let mut w = writer(HELLO);
    put_actor(&mut w, from);
    w.into_bytes()
}

/// Decodes the [`HELLO`] handshake frame: who dialed.
pub(crate) fn decode_hello(frame: &[u8]) -> DecResult<usize> {
    let mut r = Reader::new(frame);
    let from = match r.u8()? {
        HELLO => actor(&mut r)?,
        tag => return Err(format!("expected a handshake, got frame tag {tag}")),
    };
    r.finish()?;
    Ok(from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::DRIVER;
    use raxpp_ir::Shape;

    fn decode_cmd_frame(b: &[u8]) -> DecResult<Command> {
        match decode(DRIVER, b)?.map(|m| m.payload) {
            Some(Payload::Command(c)) => Ok(c),
            _ => panic!("not a command frame"),
        }
    }

    fn decode_reply_frame(b: &[u8]) -> DecResult<Reply> {
        match decode(0, b)?.map(|m| m.payload) {
            Some(Payload::Reply(r)) => Ok(r),
            _ => panic!("not a reply frame"),
        }
    }

    fn roundtrip_cmd(c: Command) -> Command {
        decode_cmd_frame(&encode_command(&c)).unwrap()
    }

    #[test]
    fn command_roundtrip_is_exact() {
        let t = Tensor::from_vec(Shape::new(vec![2, 2]), vec![1.0, -0.0, f32::MIN, 3.5]).unwrap();
        match roundtrip_cmd(Command::Place {
            seq: 7,
            bufs: vec![(BufferId(3), t.clone())],
        }) {
            Command::Place { seq, bufs } => {
                assert_eq!(seq, 7);
                assert_eq!(bufs[0].0, BufferId(3));
                let a: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = bufs[0].1.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "tensor bits must survive the wire exactly");
            }
            c => panic!("wrong decode: {c:?}"),
        }
        let exec = Command::Execute {
            seq: 9,
            traced: true,
            inputs: Vec::new(),
        };
        // tag + command kind + seq + traced + input count: a step with
        // no data inputs for this actor carries nothing else.
        assert_eq!(encode_command(&exec).len(), 1 + 1 + 8 + 1 + 4);
        assert_eq!(roundtrip_cmd(exec.clone()), exec);
        match roundtrip_cmd(Command::Reprogram {
            assign: vec![0, 1, 1, 3],
        }) {
            Command::Reprogram { assign } => assert_eq!(assign, vec![0, 1, 1, 3]),
            c => panic!("wrong decode: {c:?}"),
        }
        for f in [
            Fault::DieNow,
            Fault::DieAtInstr(4),
            Fault::ErrorAtInstr(2),
            Fault::ErrorAtTask("bwd".into()),
            Fault::KillNow,
            Fault::KillAtInstr(11),
            Fault::DropLink { peer: 2 },
            Fault::DelayLink { peer: 1, ms: 30 },
            Fault::Partition { to: usize::MAX },
        ] {
            match roundtrip_cmd(Command::InjectFault(f.clone())) {
                Command::InjectFault(g) => assert_eq!(f, g),
                c => panic!("wrong decode: {c:?}"),
            }
        }
    }

    #[test]
    fn msg_and_reply_roundtrip() {
        let t = Tensor::from_vec(Shape::new(vec![3]), vec![0.25, -1.5, 2.0]).unwrap();
        let m = Msg {
            from: usize::MAX,
            payload: Payload::Abort(42, "step aborted".into()),
        };
        let b = encode(&m).unwrap();
        assert_eq!(b[0], DATA);
        // A data frame names its sender itself.
        let m2 = decode(0, &b).unwrap().unwrap();
        assert_eq!(m2.from, usize::MAX);
        assert!(matches!(m2.payload, Payload::Abort(42, ref r) if r == "step aborted"));

        let mut p = ActorProfile::default();
        p.add(Kind::Fwd, Duration::from_micros(12), 3);
        p.alloc = EvalStats {
            allocated: 5,
            reused: 2,
            freed: 4,
        };
        p.bytes_wire = 128;
        p.dp_bytes_wire = 16;
        let r = Reply {
            seq: 3,
            kind: ReplyKind::Executed(Box::new(ExecOutcome {
                result: Ok(p.clone()),
                fetched: vec![t.clone()],
                trace: Some(ActorTrace {
                    actor: 1,
                    spans: vec![SpanEvent {
                        instr: 0,
                        kind: "wire",
                        name: "wire b2 -> actor 0".into(),
                        start_ns: 10,
                        dur_ns: 20,
                        bytes: 12,
                        alloc: None,
                    }],
                    dropped: 0,
                }),
            })),
        };
        let r2 = decode_reply_frame(&encode_reply(&r)).unwrap();
        assert_eq!(r2.seq, 3);
        match r2.kind {
            ReplyKind::Executed(o) => {
                assert_eq!(o.result.as_ref().unwrap(), &p);
                assert_eq!(o.fetched, vec![t.clone()]);
                let tr = o.trace.unwrap();
                assert_eq!(tr.spans[0].kind, "wire");
                assert_eq!(tr.spans[0].bytes, 12);
            }
            _ => panic!("wrong reply kind"),
        }
        let r = Reply {
            seq: 4,
            kind: ReplyKind::Fetched(Ok(vec![t.clone()])),
        };
        match decode_reply_frame(&encode_reply(&r)).unwrap().kind {
            ReplyKind::Fetched(Ok(ts)) => assert_eq!(ts[0].data(), t.data()),
            _ => panic!("wrong reply kind"),
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The two frames of a step, built from a seed: an `Execute` with
    /// data inputs of mixed rank and the `Executed` reply carrying the
    /// fetches (profile and one span included, so every field of the
    /// reply sits in front of or behind the new bytes).
    fn step_frames(seed: u64) -> (Command, Reply) {
        use raxpp_ir::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tensor = |rank: usize| {
            let dims: Vec<usize> = (0..rank).map(|_| rng.gen_range(1..4)).collect();
            Tensor::randn(Shape::new(dims), 1.0, &mut rng)
        };
        let inputs = vec![
            (BufferId(7), tensor(2)),
            (BufferId(8), tensor(0)),
            (BufferId(1 << 20), tensor(3)),
        ];
        let fetched = vec![tensor(0), tensor(2)];
        let mut p = ActorProfile::default();
        p.add(Kind::Fwd, Duration::from_micros(5), 2);
        let span = SpanEvent {
            instr: 1,
            kind: "fwd",
            name: "fwd s0 mb0".into(),
            start_ns: 3,
            dur_ns: 4,
            bytes: 0,
            alloc: Some(EvalStats::default()),
        };
        let execute = Command::Execute {
            seq: seed,
            traced: true,
            inputs,
        };
        let reply = Reply {
            seq: seed,
            kind: ReplyKind::Executed(Box::new(ExecOutcome {
                result: Ok(p),
                fetched,
                trace: Some(ActorTrace {
                    actor: 0,
                    spans: vec![span],
                    dropped: 0,
                }),
            })),
        };
        (execute, reply)
    }

    #[test]
    fn step_frames_roundtrip_bitwise_and_every_truncation_is_a_typed_error() {
        for seed in [1, 2, 3, 1207] {
            let (execute, reply) = step_frames(seed);
            let cmd_bytes = encode_command(&execute);
            let decoded = decode_cmd_frame(&cmd_bytes).unwrap();
            assert_eq!(decoded, execute, "seq, flag, ids and shapes");
            let (Command::Execute { inputs, .. }, Command::Execute { inputs: got, .. }) =
                (&execute, &decoded)
            else {
                unreachable!()
            };
            for ((_, t0), (_, t1)) in inputs.iter().zip(got) {
                assert_eq!(bits(t0), bits(t1), "input bits survive the wire");
            }
            let reply_bytes = encode_reply(&reply);
            let ReplyKind::Executed(want) = &reply.kind else {
                unreachable!()
            };
            match decode_reply_frame(&reply_bytes).unwrap().kind {
                ReplyKind::Executed(got) => {
                    assert_eq!(got.result, want.result);
                    assert_eq!(got.fetched.len(), want.fetched.len());
                    for (t0, t1) in want.fetched.iter().zip(&got.fetched) {
                        assert_eq!(t0.shape(), t1.shape());
                        assert_eq!(bits(t0), bits(t1), "fetched bits survive the wire");
                    }
                    assert_eq!(got.trace.unwrap().spans.len(), 1);
                }
                _ => panic!("wrong reply kind"),
            }
            // Every proper prefix: a typed error, never a panic.
            for len in 1..cmd_bytes.len() {
                assert!(decode_cmd_frame(&cmd_bytes[..len]).is_err(), "cmd {len}");
            }
            for len in 1..reply_bytes.len() {
                let r = decode_reply_frame(&reply_bytes[..len]);
                assert!(r.is_err(), "reply prefix {len}");
            }
        }
    }

    /// One frame of every kind the wire carries: the one-field handshake
    /// (from actor 7), the heartbeat (from actor 2), then each envelope.
    fn every_frame() -> Vec<Vec<u8>> {
        let t = Tensor::from_vec(Shape::new(vec![2]), vec![0.5, -2.0]).unwrap();
        let (execute, executed) = step_frames(5);
        let reply = |kind| Payload::Reply(Reply { seq: 4, kind });
        let envelopes = [
            Payload::Data(3, BufferId(9), t.clone(), SendToken::new()),
            Payload::Abort(3, "boom".into()),
            Payload::Command(execute),
            Payload::Command(Command::Fetch {
                seq: 4,
                bufs: vec![BufferId(1)],
            }),
            Payload::Command(Command::HealWire),
            Payload::Reply(executed),
            reply(ReplyKind::Placed),
            reply(ReplyKind::Fetched(Ok(vec![t]))),
            reply(ReplyKind::Fetched(Err("missing".into()))),
            reply(ReplyKind::StoreBytes(64)),
        ];
        let mut frames = vec![encode_hello(7), encode_heartbeat(2)];
        frames.extend(envelopes.map(|payload| encode(&Msg { from: 1, payload }).unwrap()));
        frames
    }

    /// The wire format is pinned byte for byte: `(length, crc32)` of
    /// each frame of [`every_frame`], in order (its `Execute` and
    /// `Executed` frames are those of `step_frames(5)`). A codec change
    /// that means to keep the format passes this unmodified.
    #[test]
    fn frame_bytes_are_pinned() {
        let got: Vec<(usize, u32)> = every_frame()
            .iter()
            .map(|f| (f.len(), raxpp_ir::bytes::crc32(f)))
            .collect();
        let want = [
            (0x9, 0xeccc1db7),
            (0x9, 0xf9c042df),
            (0x27, 0x0569ae5c),
            (0x1a, 0x2e13108e),
            (0x52, 0x794a4b34),
            (0x12, 0x16d41f75),
            (0x2, 0xed8be5de),
            (0xc3, 0x80db0659),
            (0xa, 0x55518279),
            (0x20, 0x21d5ade6),
            (0x16, 0x3ca6501b),
            (0x12, 0xee85cbc8),
        ];
        assert_eq!(got, want, "{got:x?}");
    }

    /// A frame is exactly one envelope: the same frame with a byte
    /// appended is a protocol error, never a whole frame and change.
    #[test]
    fn a_frame_with_trailing_bytes_is_a_typed_error() {
        let frames = every_frame();
        let mut hello = frames[0].clone();
        hello.push(0);
        assert!(decode_hello(&hello).is_err(), "hello");
        for frame in &frames {
            let long = [frame.as_slice(), &[0]].concat();
            assert!(decode(1, &long).is_err(), "tag {}", frame[0]);
        }
    }

    /// Every frame kind the wire carries — the one-field handshake, the
    /// heartbeat, and each envelope — decodes whole and is a typed error
    /// at every proper prefix, never a panic or a short frame taken for
    /// a whole one.
    #[test]
    fn every_frame_kind_is_a_typed_error_at_every_proper_prefix() {
        let frames = every_frame();
        let hello = &frames[0];
        assert_eq!(decode_hello(hello), Ok(7));
        for len in 0..hello.len() {
            assert!(decode_hello(&hello[..len]).is_err(), "hello prefix {len}");
        }
        // After the handshake, a second one is a protocol error.
        assert!(decode(7, hello).is_err());
        assert!(
            matches!(decode(2, &frames[1]), Ok(None)),
            "a heartbeat carries nothing"
        );
        for frame in &frames[2..] {
            assert!(decode(1, frame).unwrap().is_some(), "tag {}", frame[0]);
        }
        for frame in &frames[1..] {
            for len in 0..frame.len() {
                let got = decode(1, &frame[..len]);
                assert!(got.is_err(), "tag {} prefix {len}", frame[0]);
            }
        }
        // A departure has no frame: the wire observes it as EOF.
        let gone = Msg {
            from: 1,
            payload: Payload::Gone(0),
        };
        assert!(encode(&gone).is_none());
    }

    #[global_allocator]
    static ALLOCATOR: raxpp_ir::testing::NoteLargest = raxpp_ir::testing::NoteLargest;

    /// Mutation, not only truncation: every frame of [`every_frame`]
    /// under the shared mutator (`raxpp_ir::testing::mutants`: a byte
    /// flip at every offset, `0xFF…` over every count and length field,
    /// splices of every ordered pair of frames). Both decoders answer
    /// each input with `Ok` or a typed `Err` — a panic
    /// fails the test — and no single allocation outgrows what the
    /// input's bytes could describe (a decoded element costs at most a
    /// few dozen bytes of memory per byte of frame; a count sized from a
    /// `0xFF…` field would want gigabytes).
    #[test]
    fn every_frame_survives_byte_flips_length_edits_and_splices() {
        use raxpp_ir::testing::{largest_allocation, mutants};
        let inputs = mutants(&every_frame(), 0xF1A5);
        for bytes in &inputs {
            let largest = largest_allocation(|| {
                let _ = decode(1, bytes);
                let _ = decode_hello(bytes);
            });
            let bound = 64 * bytes.len() + (16 << 10);
            assert!(
                largest <= bound,
                "{largest} B for {} B: {bytes:?}",
                bytes.len()
            );
        }
    }

    /// Receiving one 256×256 tensor makes two payload-sized
    /// allocations: the frame [`read_frame`] reads, and the tensor
    /// [`decode`] writes straight into the buffer it keeps. A fresh
    /// thread has no spare to take, so both are real allocations.
    #[test]
    fn a_received_tensor_is_decoded_into_its_final_buffer() {
        use raxpp_ir::testing::allocations_at_least;
        let t = Tensor::full([256, 256], 0.5);
        let payload = 4 * t.numel();
        let msg = Msg {
            from: 0,
            payload: Payload::Data(1, BufferId(2), t, SendToken::new()),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode(&msg).unwrap()).unwrap();
        let sizes = std::thread::spawn(move || {
            allocations_at_least(payload, || {
                let frame = read_frame(&mut wire.as_slice()).unwrap();
                match decode(1, &frame).unwrap().map(|m| m.payload) {
                    Some(Payload::Data(_, _, got, _)) => assert_eq!(got.data()[0], 0.5),
                    _ => panic!("not a data frame"),
                }
            })
        })
        .join()
        .unwrap();
        assert_eq!(sizes.len(), 2, "read_frame, then decode: {sizes:?}");
    }

    /// Found by the mutator: an `Executed` reply whose profile entry
    /// count reads `0xFFFF_FFFF` took the bytes behind the one real
    /// entry for more entries, met a kind twice and overflowed its
    /// invocation counter. A kind may appear once.
    #[test]
    fn a_profile_kind_twice_is_a_typed_error() {
        let (_, executed) = step_frames(5);
        let mut bytes = encode_reply(&executed);
        // Tag, seq, reply kind, result kind: the entry count follows.
        bytes[11..15].fill(0xFF);
        assert!(decode_reply_frame(&bytes).is_err());

        let mut e = writer(REPLY);
        e.u64(1);
        e.u8(1); // Executed
        e.u8(0); // Ok(profile)
        e.u32(2);
        for _ in 0..2 {
            e.u8(Kind::parse("fwd").unwrap() as u8);
            e.u64(u64::MAX);
            e.u32(u32::MAX);
        }
        let err = decode_reply_frame(&e.into_bytes())
            .err()
            .expect("a typed error");
        assert!(err.contains("profile kind fwd twice"), "{err}");
    }

    #[test]
    fn counts_on_the_wire_never_allocate_beyond_the_remaining_input() {
        // An `Execute` claiming 2^32 - 1 inputs with nothing behind it:
        // rejected on the count, before any `Vec` is sized from it.
        let mut e = writer(CMD);
        e.u8(1);
        e.u64(1);
        e.u8(0);
        e.u32(u32::MAX);
        let err = decode_cmd_frame(&e.into_bytes()).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        // One input whose dims promise 2^40 elements (and one whose
        // element count overflows) over a 16-byte payload.
        for dims in [[1u64 << 20, 1 << 20], [u64::MAX, 8]] {
            let mut e = writer(CMD);
            e.u8(1);
            e.u64(1);
            e.u8(0);
            e.u32(1);
            e.u32(0); // buffer id
            e.u8(2); // rank
            e.u64(dims[0]);
            e.u64(dims[1]);
            e.u64(0);
            e.u64(0);
            assert!(decode_cmd_frame(&e.into_bytes()).is_err(), "{dims:?}");
        }

        // An `Executed` reply claiming 2^32 - 1 fetched tensors.
        let mut e = writer(REPLY);
        e.u64(1);
        e.u8(1); // Executed
        e.u8(1); // Err(Error(..))
        e.str("boom");
        e.u32(u32::MAX);
        assert!(decode_reply_frame(&e.into_bytes()).is_err());
    }

    /// A garbage kind byte — in a profile entry or in a span — is a
    /// typed error: nothing is interned, leaked or guessed for it.
    #[test]
    fn an_unknown_kind_byte_is_a_typed_error() {
        let (_, mut reply) = step_frames(1);
        let fwd = encode_reply(&reply);
        // The same reply under another kind differs in the kind bytes
        // and nowhere else, which is how this test finds them.
        let ReplyKind::Executed(o) = &mut reply.kind else {
            unreachable!()
        };
        let mut p = ActorProfile::default();
        p.add(Kind::Bwd, Duration::from_micros(5), 2);
        o.result = Ok(p);
        o.trace.as_mut().unwrap().spans[0].kind = "bwd";
        let bwd = encode_reply(&reply);
        let kind_bytes: Vec<usize> = (0..fwd.len()).filter(|&i| fwd[i] != bwd[i]).collect();
        assert_eq!(kind_bytes.len(), 2, "one profile entry, one span");
        for at in kind_bytes {
            for garbage in [Kind::COUNT as u8, 0xFF] {
                let mut bytes = fwd.clone();
                bytes[at] = garbage;
                let err = decode_reply_frame(&bytes).err().expect("a typed error");
                assert!(err.contains("unknown span kind"), "{err}");
            }
        }
    }

    #[test]
    fn every_kind_round_trips_through_its_byte() {
        for (i, k) in Kind::ALL.into_iter().enumerate() {
            assert_eq!(k as usize, i, "ALL is in wire order");
            assert_eq!(kind(&mut Reader::new(&[k as u8])), Ok(k));
            assert_eq!(Kind::parse(k.as_str()), Some(k));
        }
    }
}

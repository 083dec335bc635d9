//! Length-prefixed wire codec for the socket transport.
//!
//! Every frame on a transport stream is `u32` little-endian payload
//! length followed by the payload; the first payload byte is a frame
//! tag ([`HELLO`], [`DATA`], [`CMD`], [`REPLY`], [`HEARTBEAT`]). After
//! the handshake, every frame but a heartbeat carries one envelope
//! ([`encode`] / [`decode`]). The
//! codec is hand-rolled (the workspace is dependency-free by design)
//! and *exact*: tensors travel as raw `f32` bit patterns, so a value
//! decoded on the far side is bitwise-identical to the one encoded —
//! the socket transport inherits the runtime's bitwise-determinism
//! contract from this property.
//!
//! Actor ids are `u64` on the wire; the driver's pseudo-id
//! (`usize::MAX`) maps to `u64::MAX`. A span's or profile entry's kind
//! travels as its one [`Kind`] byte; a byte no kind has is a protocol
//! error like any other.

use std::io::{Read, Write};
use std::time::Duration;

use raxpp_ir::{EvalStats, Shape, Tensor};
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
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
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
    let len = u32::from_le_bytes(len);
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
// Primitive encoder / decoder
// ---------------------------------------------------------------------

/// Append-only byte encoder over the primitive wire types.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(tag: u8) -> Enc {
        Enc { buf: vec![tag] }
    }

    fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn actor(&mut self, a: usize) {
        // usize::MAX (the driver pseudo-id) maps to u64::MAX.
        self.u64(if a == usize::MAX { u64::MAX } else { a as u64 });
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn tensor(&mut self, t: &Tensor) {
        let dims = t.shape().dims();
        self.u8(dims.len() as u8);
        for &d in dims {
            self.u64(d as u64);
        }
        for &v in t.data() {
            self.u32(v.to_bits());
        }
    }

    fn stats(&mut self, s: &EvalStats) {
        self.u64(s.allocated);
        self.u64(s.reused);
        self.u64(s.freed);
    }
}

/// Cursor-based decoder; every accessor is total and reports a
/// protocol error instead of panicking on truncated input.
struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

type DecResult<T> = Result<T, String>;

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Dec<'a> {
        Dec { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        if n > self.b.len() - self.pos {
            return Err(format!(
                "truncated frame: wanted {n} bytes at {}, have {}",
                self.pos,
                self.b.len()
            ));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> DecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32`-counted list. The count is checked against the bytes
    /// left before anything is sized from it: every element occupies at
    /// least `min_bytes` of the frame, so a corrupt or truncated count
    /// can never drive an allocation beyond the remaining input.
    fn list<T>(
        &mut self,
        min_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> DecResult<T>,
    ) -> DecResult<Vec<T>> {
        let n = self.u32()? as usize;
        let left = self.b.len() - self.pos;
        if n.saturating_mul(min_bytes) > left {
            return Err(format!(
                "truncated frame: {n} elements of >= {min_bytes} bytes, {left} bytes left"
            ));
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(elem(self)?);
        }
        Ok(items)
    }

    fn actor(&mut self) -> DecResult<usize> {
        let v = self.u64()?;
        Ok(if v == u64::MAX {
            usize::MAX
        } else {
            v as usize
        })
    }

    fn str(&mut self) -> DecResult<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| format!("bad utf8: {e}"))
    }

    fn tensor(&mut self) -> DecResult<Tensor> {
        let rank = self.u8()? as usize;
        let dims: Vec<usize> = self
            .take(8 * rank)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
            .collect();
        // The payload must be present in full before anything is
        // allocated for it (`take` checks the checked byte count).
        let bytes = dims
            .iter()
            .try_fold(4usize, |n, &d| n.checked_mul(d))
            .ok_or_else(|| format!("tensor dims {dims:?} overflow"))?;
        let data = self
            .take(bytes)?
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
            .collect();
        Tensor::from_vec(Shape::new(dims), data).map_err(|e| format!("bad tensor: {e}"))
    }

    fn kind(&mut self) -> DecResult<Kind> {
        let byte = self.u8()?;
        Kind::from_u8(byte).ok_or_else(|| format!("unknown span kind {byte}"))
    }

    fn stats(&mut self) -> DecResult<EvalStats> {
        Ok(EvalStats {
            allocated: self.u64()?,
            reused: self.u64()?,
            freed: self.u64()?,
        })
    }
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
    let mut e = Enc::new(DATA);
    match &m.payload {
        Payload::Data(epoch, buf, t, _token) => {
            e.actor(m.from);
            e.u64(*epoch);
            e.u8(0);
            e.u32(buf.0);
            e.tensor(t);
        }
        Payload::Abort(epoch, reason) => {
            e.actor(m.from);
            e.u64(*epoch);
            e.u8(1);
            e.str(reason);
        }
        Payload::Command(c) => return Some(encode_command(c)),
        Payload::Reply(r) => return Some(encode_reply(r)),
        Payload::Gone(_) => return None,
    }
    Some(e.into_bytes())
}

/// Decodes one frame read from `from`'s link into the envelope it
/// carries — `None` for a heartbeat. A [`HELLO`] after the handshake
/// is a protocol error like any unknown tag.
pub(crate) fn decode(from: usize, frame: &[u8]) -> DecResult<Option<Msg>> {
    let mut d = Dec::new(frame);
    let payload = match d.u8()? {
        DATA => {
            let from = d.actor()?;
            let epoch = d.u64()?;
            let payload = match d.u8()? {
                0 => {
                    let buf = BufferId(d.u32()?);
                    Payload::Data(epoch, buf, d.tensor()?, SendToken::new())
                }
                1 => Payload::Abort(epoch, d.str()?),
                k => return Err(format!("unknown payload kind {k}")),
            };
            return Ok(Some(Msg { from, payload }));
        }
        CMD => Payload::Command(decode_command(&mut d)?),
        REPLY => Payload::Reply(decode_reply(&mut d)?),
        HEARTBEAT => {
            d.actor()?;
            return Ok(None);
        }
        tag => return Err(format!("unexpected frame tag {tag}")),
    };
    Ok(Some(Msg { from, payload }))
}

// ---------------------------------------------------------------------
// Fault
// ---------------------------------------------------------------------

fn encode_fault(e: &mut Enc, f: &Fault) {
    match f {
        Fault::DieNow => e.u8(0),
        Fault::DieAtInstr(n) => {
            e.u8(1);
            e.u64(*n as u64);
        }
        Fault::ErrorAtInstr(n) => {
            e.u8(2);
            e.u64(*n as u64);
        }
        Fault::ErrorAtTask(s) => {
            e.u8(3);
            e.str(s);
        }
        Fault::KillNow => e.u8(4),
        Fault::KillAtInstr(n) => {
            e.u8(5);
            e.u64(*n as u64);
        }
        Fault::DropLink { peer } => {
            e.u8(6);
            e.actor(*peer);
        }
        Fault::DelayLink { peer, ms } => {
            e.u8(7);
            e.actor(*peer);
            e.u64(*ms);
        }
        Fault::Partition { to } => {
            e.u8(8);
            e.actor(*to);
        }
    }
}

fn decode_fault(d: &mut Dec<'_>) -> DecResult<Fault> {
    Ok(match d.u8()? {
        0 => Fault::DieNow,
        1 => Fault::DieAtInstr(d.u64()? as usize),
        2 => Fault::ErrorAtInstr(d.u64()? as usize),
        3 => Fault::ErrorAtTask(d.str()?),
        4 => Fault::KillNow,
        5 => Fault::KillAtInstr(d.u64()? as usize),
        6 => Fault::DropLink { peer: d.actor()? },
        7 => Fault::DelayLink {
            peer: d.actor()?,
            ms: d.u64()?,
        },
        8 => Fault::Partition { to: d.actor()? },
        k => return Err(format!("unknown fault kind {k}")),
    })
}

// ---------------------------------------------------------------------
// Command
// ---------------------------------------------------------------------

/// Buffers to insert into a store: `Place`'s payload and the data
/// inputs riding `Execute`.
fn encode_bufs(e: &mut Enc, bufs: &[(BufferId, Tensor)]) {
    e.u32(bufs.len() as u32);
    for (b, t) in bufs {
        e.u32(b.0);
        e.tensor(t);
    }
}

fn decode_bufs(d: &mut Dec<'_>) -> DecResult<Vec<(BufferId, Tensor)>> {
    // Buffer id + tensor rank: the least one entry occupies.
    d.list(4 + 1, |d| Ok((BufferId(d.u32()?), d.tensor()?)))
}

fn encode_command(c: &Command) -> Vec<u8> {
    let mut e = Enc::new(CMD);
    match c {
        Command::Place { seq, bufs } => {
            e.u8(0);
            e.u64(*seq);
            encode_bufs(&mut e, bufs);
        }
        Command::Execute {
            seq,
            traced,
            inputs,
        } => {
            e.u8(1);
            e.u64(*seq);
            e.u8(*traced as u8);
            encode_bufs(&mut e, inputs);
        }
        Command::Fetch { seq, bufs } => {
            e.u8(2);
            e.u64(*seq);
            e.u32(bufs.len() as u32);
            for b in bufs {
                e.u32(b.0);
            }
        }
        Command::PeakBytes { seq } => {
            e.u8(3);
            e.u64(*seq);
        }
        Command::LiveBytes { seq } => {
            e.u8(4);
            e.u64(*seq);
        }
        Command::Reprogram { assign } => {
            e.u8(5);
            e.u32(assign.len() as u32);
            for &a in assign {
                e.u64(a as u64);
            }
        }
        Command::InjectFault(f) => {
            e.u8(6);
            encode_fault(&mut e, f);
        }
        Command::HealWire => e.u8(7),
        Command::Shutdown => e.u8(8),
    }
    e.into_bytes()
}

fn decode_command(d: &mut Dec<'_>) -> DecResult<Command> {
    Ok(match d.u8()? {
        0 => Command::Place {
            seq: d.u64()?,
            bufs: decode_bufs(d)?,
        },
        1 => Command::Execute {
            seq: d.u64()?,
            traced: d.u8()? != 0,
            inputs: decode_bufs(d)?,
        },
        2 => Command::Fetch {
            seq: d.u64()?,
            bufs: d.list(4, |d| Ok(BufferId(d.u32()?)))?,
        },
        3 => Command::PeakBytes { seq: d.u64()? },
        4 => Command::LiveBytes { seq: d.u64()? },
        5 => Command::Reprogram {
            assign: d.list(8, |d| Ok(d.u64()? as usize))?,
        },
        6 => Command::InjectFault(decode_fault(d)?),
        7 => Command::HealWire,
        8 => Command::Shutdown,
        k => return Err(format!("unknown command kind {k}")),
    })
}

// ---------------------------------------------------------------------
// Reply
// ---------------------------------------------------------------------

fn encode_profile(e: &mut Enc, p: &ActorProfile) {
    e.u32(p.by_kind().count() as u32);
    for (kind, dur, count) in p.by_kind() {
        e.u8(kind as u8);
        e.u64(dur.as_nanos() as u64);
        e.u32(count);
    }
    e.stats(p.alloc_stats());
    e.u64(p.bytes_wire());
    e.u64(p.dp_bytes_wire());
}

fn decode_profile(d: &mut Dec<'_>) -> DecResult<ActorProfile> {
    let n = d.u32()? as usize;
    let mut p = ActorProfile::default();
    // The encoder writes each kind once; a repeat would add onto (and
    // could overflow) the first one's totals.
    let mut seen = [false; Kind::COUNT];
    for _ in 0..n {
        let kind = d.kind()?;
        if std::mem::replace(&mut seen[kind as usize], true) {
            return Err(format!("profile kind {} twice", kind.as_str()));
        }
        let dur = Duration::from_nanos(d.u64()?);
        let count = d.u32()?;
        p.add(kind, dur, count);
    }
    p.alloc = d.stats()?;
    p.bytes_wire = d.u64()?;
    p.dp_bytes_wire = d.u64()?;
    Ok(p)
}

fn encode_span(e: &mut Enc, s: &SpanEvent) {
    e.u32(s.instr);
    // A name outside the table (only a hand-built span can carry one)
    // encodes as a byte the decoder rejects.
    e.u8(Kind::parse(s.kind).map_or(u8::MAX, |k| k as u8));
    e.str(&s.name);
    e.u64(s.start_ns);
    e.u64(s.dur_ns);
    e.u64(s.bytes);
    match &s.alloc {
        Some(a) => {
            e.u8(1);
            e.stats(a);
        }
        None => e.u8(0),
    }
}

fn decode_span(d: &mut Dec<'_>) -> DecResult<SpanEvent> {
    let instr = d.u32()?;
    let kind = d.kind()?.as_str();
    let name = d.str()?;
    let start_ns = d.u64()?;
    let dur_ns = d.u64()?;
    let bytes = d.u64()?;
    let alloc = match d.u8()? {
        0 => None,
        _ => Some(d.stats()?),
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

fn encode_trace(e: &mut Enc, t: &ActorTrace) {
    e.actor(t.actor);
    e.u64(t.dropped);
    e.u32(t.spans.len() as u32);
    for s in &t.spans {
        encode_span(e, s);
    }
}

fn decode_trace(d: &mut Dec<'_>) -> DecResult<ActorTrace> {
    let actor = d.actor()?;
    let dropped = d.u64()?;
    // instr + kind + name length + three u64s + alloc flag.
    let spans = d.list(4 + 1 + 4 + 24 + 1, decode_span)?;
    Ok(ActorTrace {
        actor,
        spans,
        dropped,
    })
}

fn encode_tensors(e: &mut Enc, ts: &[Tensor]) {
    e.u32(ts.len() as u32);
    for t in ts {
        e.tensor(t);
    }
}

fn decode_tensors(d: &mut Dec<'_>) -> DecResult<Vec<Tensor>> {
    d.list(1, Dec::tensor) // a tensor is at least its rank byte
}

fn encode_result_tensors(e: &mut Enc, r: &Result<Vec<Tensor>, String>) {
    match r {
        Ok(ts) => {
            e.u8(0);
            encode_tensors(e, ts);
        }
        Err(m) => {
            e.u8(1);
            e.str(m);
        }
    }
}

fn decode_result_tensors(d: &mut Dec<'_>) -> DecResult<Result<Vec<Tensor>, String>> {
    Ok(match d.u8()? {
        0 => Ok(decode_tensors(d)?),
        _ => Err(d.str()?),
    })
}

fn encode_reply(r: &Reply) -> Vec<u8> {
    let mut e = Enc::new(REPLY);
    e.u64(r.seq);
    match &r.kind {
        ReplyKind::Placed => e.u8(0),
        ReplyKind::Executed(o) => {
            e.u8(1);
            match &o.result {
                Ok(p) => {
                    e.u8(0);
                    encode_profile(&mut e, p);
                }
                Err(ExecFailure::Error(m)) => {
                    e.u8(1);
                    e.str(m);
                }
                Err(ExecFailure::Aborted { by, reason }) => {
                    e.u8(2);
                    e.actor(*by);
                    e.str(reason);
                }
            }
            encode_tensors(&mut e, &o.fetched);
            match &o.trace {
                Some(t) => {
                    e.u8(1);
                    encode_trace(&mut e, t);
                }
                None => e.u8(0),
            }
        }
        ReplyKind::Fetched(r) => {
            e.u8(2);
            encode_result_tensors(&mut e, r);
        }
        ReplyKind::StoreBytes(b) => {
            e.u8(3);
            e.u64(*b as u64);
        }
    }
    e.into_bytes()
}

fn decode_reply(d: &mut Dec<'_>) -> DecResult<Reply> {
    let seq = d.u64()?;
    let kind = match d.u8()? {
        0 => ReplyKind::Placed,
        1 => {
            let result = match d.u8()? {
                0 => Ok(decode_profile(d)?),
                1 => Err(ExecFailure::Error(d.str()?)),
                2 => Err(ExecFailure::Aborted {
                    by: d.actor()?,
                    reason: d.str()?,
                }),
                k => return Err(format!("unknown exec result kind {k}")),
            };
            let fetched = decode_tensors(d)?;
            let trace = match d.u8()? {
                0 => None,
                _ => Some(decode_trace(d)?),
            };
            ReplyKind::Executed(Box::new(ExecOutcome {
                result,
                fetched,
                trace,
            }))
        }
        2 => ReplyKind::Fetched(decode_result_tensors(d)?),
        3 => ReplyKind::StoreBytes(d.u64()? as usize),
        k => return Err(format!("unknown reply kind {k}")),
    };
    Ok(Reply { seq, kind })
}

/// Encodes a heartbeat beacon.
pub(crate) fn encode_heartbeat(from: usize) -> Vec<u8> {
    let mut e = Enc::new(HEARTBEAT);
    e.actor(from);
    e.into_bytes()
}

/// Encodes the [`HELLO`] handshake frame.
pub(crate) fn encode_hello(from: usize) -> Vec<u8> {
    let mut e = Enc::new(HELLO);
    e.actor(from);
    e.into_bytes()
}

/// Decodes the [`HELLO`] handshake frame: who dialed.
pub(crate) fn decode_hello(frame: &[u8]) -> DecResult<usize> {
    let mut d = Dec::new(frame);
    match d.u8()? {
        HELLO => d.actor(),
        tag => Err(format!("expected a handshake, got frame tag {tag}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::DRIVER;

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

    /// The largest single allocation the calling thread made while `f`
    /// ran: the wire decoders' allocation bound, observed rather than
    /// argued.
    fn largest_allocation(f: impl FnOnce()) -> usize {
        LARGEST.with(|l| l.set(0));
        f();
        LARGEST.with(|l| l.get())
    }

    thread_local! {
        static LARGEST: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// The system allocator, noting each thread's largest request.
    struct NoteLargest;

    fn note(size: usize) {
        // `try_with`: a thread being torn down still allocates.
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // so `System` keeps the allocator contract; `note` neither allocates
    // nor touches the memory.
    unsafe impl std::alloc::GlobalAlloc for NoteLargest {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller's `alloc` contract, passed on.
            unsafe { std::alloc::System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller's `alloc_zeroed` contract, passed on.
            unsafe { std::alloc::System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, p: *mut u8, layout: std::alloc::Layout, size: usize) -> *mut u8 {
            note(size);
            // SAFETY: `p` came from `System` (every block here does), and
            // the caller's `realloc` contract is passed on.
            unsafe { std::alloc::System.realloc(p, layout, size) }
        }

        unsafe fn dealloc(&self, p: *mut u8, layout: std::alloc::Layout) {
            // SAFETY: `p` came from `System` with this `layout`.
            unsafe { std::alloc::System.dealloc(p, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: NoteLargest = NoteLargest;

    /// Mutation, not only truncation: every frame of [`every_frame`]
    /// with a seeded byte flip at every offset, with `0xFF…` written
    /// over every 4- and 8-byte window (which covers each `u32` / `u64`
    /// count and length field wherever it sits), and seeded splices of
    /// every ordered pair of frames, back-to-back included. Both
    /// decoders answer each input with `Ok` or a typed `Err` — a panic
    /// fails the test — and no single allocation outgrows what the
    /// input's bytes could describe (a decoded element costs at most a
    /// few dozen bytes of memory per byte of frame; a count sized from a
    /// `0xFF…` field would want gigabytes).
    #[test]
    fn every_frame_survives_byte_flips_length_edits_and_splices() {
        use raxpp_ir::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xF1A5);
        let frames = every_frame();
        let mut inputs = Vec::new();
        for frame in &frames {
            for at in 0..frame.len() {
                let mut flipped = frame.clone();
                flipped[at] ^= rng.gen_range(1..256u16) as u8;
                inputs.push(flipped);
                for width in [4, 8] {
                    if let Some(window) = frame.get(at..at + width) {
                        let mut edited = frame.clone();
                        edited[at..at + window.len()].fill(0xFF);
                        inputs.push(edited);
                    }
                }
            }
        }
        for a in &frames {
            for b in &frames {
                inputs.push([a.as_slice(), b].concat());
                for _ in 0..8 {
                    let head = &a[..rng.gen_range(0..a.len() + 1)];
                    let tail = &b[rng.gen_range(0..b.len() + 1)..];
                    inputs.push([head, tail].concat());
                }
            }
        }
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

        let mut e = Enc::new(REPLY);
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
        let mut e = Enc::new(CMD);
        e.u8(1);
        e.u64(1);
        e.u8(0);
        e.u32(u32::MAX);
        let err = decode_cmd_frame(&e.into_bytes()).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        // One input whose dims promise 2^40 elements (and one whose
        // element count overflows) over a 16-byte payload.
        for dims in [[1u64 << 20, 1 << 20], [u64::MAX, 8]] {
            let mut e = Enc::new(CMD);
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
        let mut e = Enc::new(REPLY);
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
            assert_eq!(Dec::new(&[k as u8]).kind(), Ok(k));
            assert_eq!(Kind::parse(k.as_str()), Some(k));
        }
    }
}

//! The live wire: envelope framing, link kill switches, transport choice.
//!
//! The shard workers move opaque envelope bytes over one of two transports
//! ([`TransportKind`]): bounded in-process rings or UDP datagrams on
//! loopback. Link-level policy — crashes, partitions, dead links — lives
//! in the [`LinkGate`], which the driver flips to *sever* traffic without
//! the transport's cooperation (exactly how the simulator's fault
//! adversary sits outside the protocol).
//!
//! The [`Envelope`] wraps one codec frame with routing metadata:
//!
//! ```text
//! ┌──────────┬─────────┬───────────┬────────────┬────────────┬───────────────┬─────────┐
//! │ from u32 │ kind u8 │ epoch u32 │ seq u64 LE │ ack u64 LE │ sent_ns u64 LE│ frame … │
//! └──────────┴─────────┴───────────┴────────────┴────────────┴───────────────┴─────────┘
//! ```
//!
//! `kind` separates protocol data ([`ENV_DATA`]) from the ARQ's
//! standalone acknowledgments ([`ENV_ACK`], empty frame). `epoch` is the
//! incarnation of the link, numbered by the driver at every link-up, so a
//! receiver can drop what a dead incarnation left in flight. `seq` is the
//! per-directed-link sequence number (FIFO witness of the live trace, and
//! the ARQ's frame number), `ack` the cumulative acknowledgment the ARQ
//! piggybacks (0 without it), and `sent_ns` the sender's monotonic send
//! instant relative to the run's shared origin (what the conformance
//! replay quantizes into simulator delivery delays).

use std::sync::atomic::{AtomicBool, Ordering};

use manet_sim::NodeId;

use crate::codec::{CodecError, Reader};

/// Which transport a live run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process bounded rings between shard workers.
    Mpsc,
    /// `std::net::UdpSocket` datagrams on 127.0.0.1.
    Udp,
}

impl TransportKind {
    /// Display name (also the `--transport` flag value).
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Mpsc => "mpsc",
            TransportKind::Udp => "udp",
        }
    }

    /// Parse a `--transport` flag value.
    pub fn parse(s: &str) -> Result<TransportKind, String> {
        match s {
            "mpsc" => Ok(TransportKind::Mpsc),
            "udp" => Ok(TransportKind::Udp),
            other => Err(format!("unknown transport '{other}'; try mpsc or udp")),
        }
    }
}

/// Envelope kind: a protocol data frame.
pub const ENV_DATA: u8 = 0;
/// Envelope kind: a standalone cumulative acknowledgment (empty frame).
pub const ENV_ACK: u8 = 1;

/// One envelope: a codec frame with its routing metadata. Decoding
/// borrows the frame from the input bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Envelope<'a> {
    /// Sending node.
    pub from: NodeId,
    /// [`ENV_DATA`] or [`ENV_ACK`].
    pub kind: u8,
    /// Incarnation of the link the envelope travels on.
    pub epoch: u32,
    /// Per-directed-link sequence number.
    pub seq: u64,
    /// Cumulative acknowledgment of the reverse link (0 without the ARQ).
    pub ack: u64,
    /// The sender's send instant relative to the run's origin.
    pub sent_ns: u64,
    /// The encoded protocol frame (empty for an ack).
    pub frame: &'a [u8],
}

impl<'a> Envelope<'a> {
    /// Encode the envelope.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 1 + 4 + 8 + 8 + 8 + self.frame.len());
        out.extend_from_slice(&self.from.0.to_le_bytes());
        out.push(self.kind);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.ack.to_le_bytes());
        out.extend_from_slice(&self.sent_ns.to_le_bytes());
        out.extend_from_slice(self.frame);
        out
    }

    /// Decode one envelope.
    pub fn decode(bytes: &'a [u8]) -> Result<Envelope<'a>, CodecError> {
        let mut r = Reader::new(bytes);
        Ok(Envelope {
            from: NodeId(r.u32()?),
            kind: r.u8()?,
            epoch: r.u32()?,
            seq: r.u64()?,
            ack: r.u64()?,
            sent_ns: r.u64()?,
            frame: &bytes[bytes.len() - r.remaining()..],
        })
    }
}

/// Directed-link kill switches, shared by the driver and every worker.
/// The driver severs links to inject crashes and partitions; hosts
/// consult the gate before sending *and* after receiving, so a
/// partition drops in-flight traffic in both directions — mirroring the
/// simulator's `PartitionWindow`, which cuts links without notifying the
/// protocols.
#[derive(Debug)]
pub struct LinkGate {
    n: usize,
    severed: Vec<AtomicBool>,
}

impl LinkGate {
    /// A gate with every directed link open.
    pub fn new(n: usize) -> LinkGate {
        LinkGate {
            n,
            severed: (0..n * n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn idx(&self, from: NodeId, to: NodeId) -> usize {
        from.index() * self.n + to.index()
    }

    /// Whether `from → to` is currently severed.
    pub fn is_severed(&self, from: NodeId, to: NodeId) -> bool {
        self.severed[self.idx(from, to)].load(Ordering::Relaxed)
    }

    /// Open or sever the directed link `from → to`.
    pub fn set(&self, from: NodeId, to: NodeId, severed: bool) {
        self.severed[self.idx(from, to)].store(severed, Ordering::Relaxed);
    }

    /// Sever or heal both directions between `a` and `b`.
    pub fn set_pair(&self, a: NodeId, b: NodeId, severed: bool) {
        self.set(a, b, severed);
        self.set(b, a, severed);
    }

    /// Sever every link touching `node` (crash injection).
    pub fn sever_all(&self, node: NodeId) {
        for i in 0..self.n as u32 {
            let peer = NodeId(i);
            if peer != node {
                self.set_pair(node, peer, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips() {
        let data = Envelope {
            from: NodeId(3),
            kind: ENV_DATA,
            epoch: 5,
            seq: 42,
            ack: 7,
            sent_ns: 1_000_000,
            frame: b"frame",
        };
        let bytes = data.encode();
        assert_eq!(Envelope::decode(&bytes).unwrap(), data);
        assert!(Envelope::decode(&bytes[..10]).is_err());
        let ack = Envelope {
            kind: ENV_ACK,
            seq: 0,
            ack: 9,
            frame: b"",
            ..data
        };
        assert_eq!(Envelope::decode(&ack.encode()).unwrap(), ack);
    }

    #[test]
    fn link_gate_severs_directionally() {
        let gate = LinkGate::new(3);
        assert!(!gate.is_severed(NodeId(0), NodeId(1)));
        gate.set(NodeId(0), NodeId(1), true);
        assert!(gate.is_severed(NodeId(0), NodeId(1)));
        assert!(!gate.is_severed(NodeId(1), NodeId(0)));
        gate.sever_all(NodeId(2));
        assert!(gate.is_severed(NodeId(2), NodeId(0)));
        assert!(gate.is_severed(NodeId(1), NodeId(2)));
        gate.set_pair(NodeId(0), NodeId(1), false);
        assert!(!gate.is_severed(NodeId(0), NodeId(1)));
    }
}

//! Randomized tests: TCP byte-stream integrity under arbitrary write
//! chunking and flow control.
//!
//! Formerly proptest-based; rewritten over the in-tree deterministic
//! [`Rng64`] so the suite builds fully offline.

use cubicle_core::{impl_component, ComponentImage, IsolationMode, System};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::rng::Rng64;
use cubicle_net::{boot_net, frame::Segment, SimClient, WireModel, MSS, SND_BUF};

struct App;
impl_component!(App);

#[test]
fn segment_encoding_round_trips() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(0x5E6_0000 + case);
        let s = Segment {
            sport: rng.next_u32() as u16,
            dport: rng.next_u32() as u16,
            seq: rng.next_u32(),
            ack: rng.next_u32(),
            flags: rng.range_u64(0, 16) as u8,
            wnd: rng.next_u32() as u16,
            payload: {
                let len = rng.range_usize(0, cubicle_net::MSS);
                rng.bytes(len)
            },
        };
        assert_eq!(Segment::decode(&s.encode()), Some(s), "case {case}");
    }
}

#[test]
fn byte_stream_survives_arbitrary_chunking() {
    for case in 0..24u64 {
        let mut rng = Rng64::new(0x7C9_0000 + case);
        let chunks: Vec<usize> = (0..rng.range_usize(1, 8))
            .map(|_| rng.range_usize(1, 5_000))
            .collect();
        let window = if rng.flip() {
            u16::MAX
        } else {
            rng.range_u64(1_460, 20_000) as u16
        };
        let total: usize = chunks.iter().sum();
        let payload: Vec<u8> = (0..total).map(|i| (i % 249) as u8).collect();

        let mut sys = System::new(IsolationMode::Full);
        let stack = boot_net(&mut sys).unwrap();
        let app = sys
            .load(
                ComponentImage::new("APP", CodeImage::plain(1024)).heap_pages(64),
                Box::new(App),
            )
            .unwrap();

        // listen + handshake
        let listener = sys.run_in_cubicle(app.cid, |sys| {
            let fd = stack.lwip.socket(sys).unwrap();
            stack.lwip.bind(sys, fd, 80).unwrap();
            stack.lwip.listen(sys, fd).unwrap();
            fd
        });
        let mut cl = SimClient::new(
            stack.netdev_slot,
            50_000,
            80,
            WireModel {
                hop_cycles: 10,
                per_byte_cycles: 0,
                request_overhead_cycles: 0,
            },
        );
        cl.set_window(window);
        cl.pump(&mut sys);
        sys.run_in_cubicle(app.cid, |sys| stack.lwip.poll(sys).unwrap());
        cl.pump(&mut sys);
        let conn = sys.run_in_cubicle(app.cid, |sys| {
            stack.lwip.poll(sys).unwrap();
            stack.lwip.accept(sys, listener).unwrap()
        });
        assert!(conn >= 0, "case {case}");

        // server writes the payload in the given chunk pattern, retrying
        // under backpressure; the client acks whenever pumped
        let lwip_cid = stack.lwip.cid();
        let mut sent = 0usize;
        let mut guard = 0;
        while sent < total {
            let end = total.min(sent + chunks[sent % chunks.len()]);
            let chunk = &payload[sent..end];
            let n = sys.run_in_cubicle(app.cid, |sys| {
                let buf = sys.heap_alloc(chunk.len().max(1), 8).unwrap();
                sys.write(buf, chunk).unwrap();
                let wid = sys.window_init();
                sys.window_add(wid, buf, chunk.len().max(1)).unwrap();
                sys.window_open(wid, lwip_cid).unwrap();
                let n = stack.lwip.send(sys, conn, buf, chunk.len()).unwrap();
                sys.window_destroy(wid).unwrap();
                sys.heap_free(buf).unwrap();
                stack.lwip.poll(sys).unwrap();
                n
            });
            if n > 0 {
                sent += n as usize;
            }
            cl.pump(&mut sys);
            guard += 1;
            assert!(
                guard < 10_000,
                "case {case}: transfer stalled at {sent}/{total}"
            );
        }
        // drain the tail
        for _ in 0..200 {
            if cl.received.len() >= total {
                break;
            }
            sys.run_in_cubicle(app.cid, |sys| stack.lwip.poll(sys).unwrap());
            cl.pump(&mut sys);
        }
        assert_eq!(cl.received.len(), total, "case {case}");
        assert_eq!(cl.received, payload, "case {case}");
    }
}

/// Seeded differential test of both byte streams while the stack's
/// send and receive queues wrap around their ring buffers: the server
/// sends random-size chunks (up to the 64 KiB send buffer) against a
/// small peer window, so the send queue drains only in part between
/// sends; the client sends random bursts of up to three segments and
/// the server reads random amounts, so the receive queue keeps a
/// residue. Some reads go to a buffer with no window first: the refused
/// read must leave a multi-segment receive queue intact and in order.
#[test]
fn byte_streams_survive_ring_wrap_and_refused_recvs() {
    for case in 0..8u64 {
        let mut rng = Rng64::new(0x3A9_0000 + case);
        let (down_len, up_len) = (
            rng.range_usize(60_000, 160_000),
            rng.range_usize(30_000, 80_000),
        );
        let (down, up) = (rng.bytes(down_len), rng.bytes(up_len));

        let mut sys = System::new(IsolationMode::Full);
        let stack = boot_net(&mut sys).unwrap();
        let app = sys
            .load(
                ComponentImage::new("APP", CodeImage::plain(1024)).heap_pages(64),
                Box::new(App),
            )
            .unwrap()
            .cid;
        let lwip_cid = stack.lwip.cid();
        // a windowed I/O buffer and a bare one, on pages of their own
        let (listener, io, bare) = sys.run_in_cubicle(app, |sys| {
            let fd = stack.lwip.socket(sys).unwrap();
            stack.lwip.bind(sys, fd, 80).unwrap();
            stack.lwip.listen(sys, fd).unwrap();
            let io = sys.heap_alloc(SND_BUF, 4096).unwrap();
            let wid = sys.window_init();
            sys.window_add(wid, io, SND_BUF).unwrap();
            sys.window_open(wid, lwip_cid).unwrap();
            (fd, io, sys.heap_alloc(4096, 4096).unwrap())
        });
        let mut cl = SimClient::new(
            stack.netdev_slot,
            50_000,
            80,
            WireModel {
                hop_cycles: 10,
                per_byte_cycles: 0,
                request_overhead_cycles: 0,
            },
        );
        cl.set_window(rng.range_u64(MSS as u64, 6_000) as u16);
        cl.pump(&mut sys);
        sys.run_in_cubicle(app, |sys| stack.lwip.poll(sys).unwrap());
        cl.pump(&mut sys);
        let conn = sys.run_in_cubicle(app, |sys| {
            stack.lwip.poll(sys).unwrap();
            stack.lwip.accept(sys, listener).unwrap()
        });
        assert!(conn >= 0, "case {case}");

        let (mut sent_down, mut sent_up) = (0usize, 0usize);
        let mut got_up: Vec<u8> = Vec::new();
        let mut refused = 0;
        let mut rounds = 0;
        while cl.received.len() < down.len() || got_up.len() < up.len() {
            rounds += 1;
            assert!(rounds < 20_000, "case {case}: stalled");
            if sent_up < up.len() {
                let k = rng.range_usize(1, 3 * MSS).min(up.len() - sent_up);
                cl.send(&up[sent_up..sent_up + k]);
                sent_up += k;
            }
            cl.pump(&mut sys);
            sys.run_in_cubicle(app, |sys| {
                stack.lwip.poll(sys).unwrap();
                if sent_down < down.len() {
                    let k = rng.range_usize(1, SND_BUF).min(down.len() - sent_down);
                    sys.write(io, &down[sent_down..sent_down + k]).unwrap();
                    let n = stack.lwip.send(sys, conn, io, k).unwrap();
                    if n > 0 {
                        sent_down += n as usize;
                    }
                }
                // every byte the client pushed has been polled in
                let queued = sent_up - got_up.len();
                if queued > MSS && rng.flip() {
                    let r = stack.lwip.recv(sys, conn, bare, 4096).unwrap();
                    assert_eq!(r, cubicle_core::Errno::Eacces.neg(), "case {case}");
                    refused += 1;
                }
                if queued > 0 {
                    let want = rng.range_usize(1, 2 * MSS);
                    let n = stack.lwip.recv(sys, conn, io, want).unwrap();
                    assert!(n > 0, "case {case}: recv returned {n}");
                    got_up.extend(sys.read_vec(io, n as usize).unwrap());
                }
                stack.lwip.poll(sys).unwrap();
            });
        }
        assert!(refused > 0, "case {case}: no refused recv was exercised");
        assert_eq!(cl.received, down, "case {case}: server-to-client stream");
        assert_eq!(got_up, up, "case {case}: client-to-server stream");
    }
}

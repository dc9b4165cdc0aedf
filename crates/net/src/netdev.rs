//! The `NETDEV` cubicle: virtual network device driver.
//!
//! Figure 5 isolates Unikraft's network device driver in its own cubicle.
//! The device here is a paravirtual NIC: descriptor rings whose slots
//! live in NETDEV-owned simulated memory, connected to a host-side
//! "wire" (frame queues) that the benchmark's client endpoint drives —
//! taking the role of the paper's external `siege` load generator.

use crate::frame::{HEADER_LEN, MSS};
use cubicle_core::{
    component_mut, impl_component, Builder, Component, ComponentImage, CubicleId, EntryId, Errno,
    LoadedComponent, Result, System, Value,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::VAddr;
use std::collections::VecDeque;

/// Ring slots (frames in flight inside the device).
pub const RING_SLOTS: usize = 8;
/// Largest frame the device accepts.
pub const MAX_FRAME: usize = HEADER_LEN + MSS;

/// State of the `NETDEV` component.
#[derive(Debug, Default)]
pub struct Netdev {
    /// Ring slot pages (NETDEV-owned simulated memory).
    slots: Vec<VAddr>,
    next_slot: usize,
    /// Frames queued towards the wire (host side).
    pub tx_wire: VecDeque<Vec<u8>>,
    /// Frames queued from the wire (host side).
    pub rx_wire: VecDeque<Vec<u8>>,
    /// Frames transmitted (statistics).
    pub tx_frames: u64,
    /// Frames received (statistics).
    pub rx_frames: u64,
}

impl_component!(Netdev, restart = reboot_reset);

impl Netdev {
    /// Microreboot hook: ring slot pages were reclaimed with the
    /// cubicle; frames in flight on either host-side queue are lost,
    /// like a NIC reset dropping its FIFOs.
    fn reboot_reset(&mut self) {
        self.slots.clear();
        self.next_slot = 0;
        self.tx_wire.clear();
        self.rx_wire.clear();
    }
}

impl Netdev {
    fn slot(&mut self, sys: &mut System) -> Result<VAddr> {
        if self.slots.is_empty() {
            // one page per slot, allocated lazily in NETDEV context
            for _ in 0..RING_SLOTS {
                self.slots.push(sys.alloc_pages(1));
            }
        }
        let s = self.slots[self.next_slot];
        self.next_slot = (self.next_slot + 1) % self.slots.len();
        Ok(s)
    }
}

/// Builds the loadable `NETDEV` image.
pub fn image() -> ComponentImage {
    let b = Builder::new();
    ComponentImage::new("NETDEV", CodeImage::plain(10 * 1024))
        .heap_pages(4)
        .export(
            b.export("long netdev_tx(const void *frame, size_t len)")
                .unwrap(),
            e_tx,
        )
        .export(
            b.export("long netdev_rx(void *buf, size_t cap)").unwrap(),
            e_rx,
        )
}

fn e_tx(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    let (frame, len) = args[0].as_buf();
    if len > MAX_FRAME {
        return Ok(Value::I64(Errno::Einval.neg()));
    }
    sys.charge(150); // doorbell + descriptor setup
    let slot = {
        let dev = component_mut::<Netdev>(this);
        dev.slot(sys)?
    };
    // DMA-in: copy the caller's frame into the device ring (subject to
    // the caller's windows — the measured cross-cubicle data path).
    match cubicle_ukbase::libc::memcpy(sys, slot, frame, len) {
        Ok(()) => {}
        Err(cubicle_core::CubicleError::WindowDenied { .. }) => {
            return Ok(Value::I64(Errno::Eacces.neg()))
        }
        Err(e) => return Err(e),
    }
    // The device serialises the slot onto the wire.
    let bytes = sys.read_vec(slot, len)?;
    let dev = component_mut::<Netdev>(this);
    dev.tx_wire.push_back(bytes);
    dev.tx_frames += 1;
    Ok(Value::I64(len as i64))
}

fn e_rx(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    let (buf, cap) = args[0].as_buf();
    sys.charge(150);
    let (slot, bytes) = {
        let dev = component_mut::<Netdev>(this);
        let Some(bytes) = dev.rx_wire.pop_front() else {
            return Ok(Value::I64(Errno::Ewouldblock.neg()));
        };
        if bytes.len() > cap {
            dev.rx_wire.push_front(bytes);
            return Ok(Value::I64(Errno::Einval.neg()));
        }
        let slot = dev.slot(sys)?;
        sys.write(slot, &bytes)?; // DMA from the wire into the ring
        (slot, bytes)
    };
    // Copy ring slot → caller buffer (windowed).
    let len = bytes.len();
    let dev = component_mut::<Netdev>(this);
    match cubicle_ukbase::libc::memcpy(sys, buf, slot, len) {
        Ok(()) => {
            dev.rx_frames += 1;
            Ok(Value::I64(len as i64))
        }
        Err(cubicle_core::CubicleError::WindowDenied { .. }) => {
            // the frame was not delivered: back to the head of the wire
            // queue, uncounted, for a retry into a windowed buffer
            dev.rx_wire.push_front(bytes);
            Ok(Value::I64(Errno::Eacces.neg()))
        }
        Err(e) => Err(e),
    }
}

/// Typed caller-side proxy for `NETDEV`.
#[derive(Clone, Copy, Debug)]
pub struct NetdevProxy {
    cid: CubicleId,
    tx: EntryId,
    rx: EntryId,
}

impl NetdevProxy {
    /// Resolves the proxy from the loaded component.
    ///
    /// # Errors
    ///
    /// [`cubicle_core::CubicleError::NoSuchEntry`] when the image does
    /// not export the expected symbols.
    pub fn resolve(loaded: &LoadedComponent) -> Result<NetdevProxy> {
        Ok(NetdevProxy {
            cid: loaded.cid,
            tx: loaded.entry("netdev_tx")?,
            rx: loaded.entry("netdev_rx")?,
        })
    }

    /// The `NETDEV` cubicle's ID.
    pub fn cid(&self) -> CubicleId {
        self.cid
    }

    /// Transmits a frame from caller memory; returns bytes or `-errno`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn tx(&self, sys: &mut System, frame: VAddr, len: usize) -> Result<i64> {
        Ok(sys
            .cross_call(self.tx, &[Value::buf_in(frame, len)])?
            .as_i64())
    }

    /// Transmits several frames under one batched cross-cubicle dispatch
    /// (one trampoline/PKRU round trip for the whole group). Frames must
    /// live in distinct caller buffers — every write precedes the
    /// dispatch. Returns one bytes-or-`-errno` result per frame.
    ///
    /// # Errors
    ///
    /// Kernel errors from the batched cross-cubicle call.
    pub fn tx_batch(&self, sys: &mut System, frames: &[(VAddr, usize)]) -> Result<Vec<i64>> {
        let elems: Vec<[Value; 1]> = frames
            .iter()
            .map(|&(addr, len)| [Value::buf_in(addr, len)])
            .collect();
        let refs: Vec<&[Value]> = elems.iter().map(|e| e.as_slice()).collect();
        Ok(sys
            .cross_call_batch(self.tx, &refs)?
            .iter()
            .map(|v| v.as_i64())
            .collect())
    }

    /// Receives a frame into caller memory; returns bytes, or
    /// `-EWOULDBLOCK` when the wire is idle.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn rx(&self, sys: &mut System, buf: VAddr, cap: usize) -> Result<i64> {
        Ok(sys
            .cross_call(self.rx, &[Value::buf_out(buf, cap)])?
            .as_i64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubicle_core::IsolationMode;

    struct App;
    impl_component!(App);

    fn setup() -> (System, NetdevProxy, usize, CubicleId) {
        let mut sys = System::new(IsolationMode::Full);
        let dev = sys.load(image(), Box::new(Netdev::default())).unwrap();
        let app = sys
            .load(
                ComponentImage::new("APP", CodeImage::plain(64)).heap_pages(8),
                Box::new(App),
            )
            .unwrap();
        let proxy = NetdevProxy::resolve(&dev).unwrap();
        (sys, proxy, dev.slot, app.cid)
    }

    #[test]
    fn tx_moves_frame_to_wire() {
        let (mut sys, proxy, slot, app) = setup();
        let dev_cid = proxy.cid();
        sys.run_in_cubicle(app, |sys| {
            let f = sys.heap_alloc(256, 8).unwrap();
            sys.write(f, b"frame-bytes-0123").unwrap();
            let wid = sys.window_init();
            sys.window_add(wid, f, 256).unwrap();
            sys.window_open(wid, dev_cid).unwrap();
            assert_eq!(proxy.tx(sys, f, 16).unwrap(), 16);
        });
        let frame = sys
            .with_component_mut::<Netdev, _>(slot, |d, _| d.tx_wire.pop_front())
            .unwrap()
            .unwrap();
        assert_eq!(frame, b"frame-bytes-0123");
    }

    #[test]
    fn tx_without_window_denied() {
        let (mut sys, proxy, _slot, app) = setup();
        let r = sys.run_in_cubicle(app, |sys| {
            let f = sys.heap_alloc(64, 8).unwrap();
            proxy.tx(sys, f, 16).unwrap()
        });
        assert_eq!(r, Errno::Eacces.neg());
    }

    #[test]
    fn rx_delivers_injected_frames_in_order() {
        let (mut sys, proxy, slot, app) = setup();
        let dev_cid = proxy.cid();
        sys.with_component_mut::<Netdev, _>(slot, |d, _| {
            d.rx_wire.push_back(b"first".to_vec());
            d.rx_wire.push_back(b"second".to_vec());
        });
        sys.run_in_cubicle(app, |sys| {
            let b = sys.heap_alloc(1024, 8).unwrap();
            let wid = sys.window_init();
            sys.window_add(wid, b, 1024).unwrap();
            sys.window_open(wid, dev_cid).unwrap();
            assert_eq!(proxy.rx(sys, b, 1024).unwrap(), 5);
            assert_eq!(sys.read_vec(b, 5).unwrap(), b"first");
            assert_eq!(proxy.rx(sys, b, 1024).unwrap(), 6);
            assert_eq!(sys.read_vec(b, 6).unwrap(), b"second");
            assert_eq!(proxy.rx(sys, b, 1024).unwrap(), Errno::Ewouldblock.neg());
        });
    }

    #[test]
    fn rx_into_unwindowed_buffer_keeps_the_frame() {
        let (mut sys, proxy, slot, app) = setup();
        let dev_cid = proxy.cid();
        sys.with_component_mut::<Netdev, _>(slot, |d, _| {
            d.rx_wire.push_back(b"kept".to_vec());
            d.rx_wire.push_back(b"next".to_vec());
        });
        sys.run_in_cubicle(app, |sys| {
            let bare = sys.heap_alloc(1024, 8).unwrap(); // no window
            assert_eq!(proxy.rx(sys, bare, 1024).unwrap(), Errno::Eacces.neg());
            let b = sys.heap_alloc(1024, 8).unwrap();
            let wid = sys.window_init();
            sys.window_add(wid, b, 1024).unwrap();
            sys.window_open(wid, dev_cid).unwrap();
            assert_eq!(proxy.rx(sys, b, 1024).unwrap(), 4);
            assert_eq!(sys.read_vec(b, 4).unwrap(), b"kept");
            assert_eq!(proxy.rx(sys, b, 1024).unwrap(), 4);
            assert_eq!(sys.read_vec(b, 4).unwrap(), b"next");
        });
        let frames = sys
            .with_component_mut::<Netdev, _>(slot, |d, _| d.rx_frames)
            .unwrap();
        assert_eq!(frames, 2, "the denied delivery is not counted");
    }

    #[test]
    fn oversized_frame_rejected() {
        let (mut sys, proxy, _slot, app) = setup();
        let dev_cid = proxy.cid();
        let r = sys.run_in_cubicle(app, |sys| {
            let f = sys.heap_alloc(MAX_FRAME + 64, 8).unwrap();
            let wid = sys.window_init();
            sys.window_add(wid, f, MAX_FRAME + 64).unwrap();
            sys.window_open(wid, dev_cid).unwrap();
            proxy.tx(sys, f, MAX_FRAME + 1).unwrap()
        });
        assert_eq!(r, Errno::Einval.neg());
    }
}

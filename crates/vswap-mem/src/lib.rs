//! Memory substrate for the VSwapper reproduction.
//!
//! Models the memory objects the paper's analysis revolves around (Figure 1
//! of the paper): host physical frames, the guest-physical address space of
//! each VM, and the host-controlled GPA⇒HPA translation table (the "EPT")
//! whose non-present entries are what trigger uncooperative swapping
//! activity.
//!
//! * [`addr`] — page-number newtypes ([`Gfn`], [`Vpn`], [`VmId`]) and size
//!   conversion helpers,
//! * [`chunked`] — a two-level table whose memory follows the entries in
//!   use, not the index range (swap slots, disk-image pages),
//! * [`content`] — opaque content labels used to *prove* data consistency
//!   end-to-end (the Mapper's subtle consistency issues, §4.1),
//! * [`ilist`] — an intrusive index list giving O(1) LRU queue surgery over
//!   densely numbered frames/pages,
//! * [`frame`] — the host physical frame table with ownership, accessed and
//!   dirty bookkeeping,
//! * [`ept`] — per-VM GPA⇒HPA tables whose non-present entries carry the
//!   *backing location* of evicted pages (host swap slot, disk-image block,
//!   or nothing),
//! * [`slots`] — the cursor-scan swap-slot allocator shared by the host
//!   swap area and the guest swap partition.
//!
//! # Examples
//!
//! ```
//! use vswap_mem::{FrameOwner, Gfn, HostFrameTable, VmId};
//!
//! let mut frames = HostFrameTable::new(1024);
//! let vm = VmId::new(0);
//! let frame = frames.alloc(FrameOwner::Guest { vm, gfn: Gfn::new(7) }).unwrap();
//! assert_eq!(frames.free_frames(), 1023);
//! frames.free(frame);
//! assert_eq!(frames.free_frames(), 1024);
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod chunked;
pub mod content;
pub mod ept;
pub mod frame;
pub mod ilist;
pub mod slots;

pub use addr::{pages_to_bytes, pages_to_mb, Gfn, MemBytes, VmId, Vpn};
pub use chunked::ChunkedTable;
pub use content::{ContentLabel, LabelGen};
pub use ept::{Backing, Ept, EptEntry};
pub use frame::{FrameId, FrameOwner, HostFrameTable};
pub use ilist::{IndexList, ListArena, ListHead};
pub use slots::{SlotRecord, SlotTable};

//! Pages straight from the OS, and the stack switch that runs actors on them.
//! The only `unsafe` in `simnet`.
//!
//! Two users. [`Mapping`] is a region of anonymous zero pages: every
//! [`HostMem`](crate::HostMem) allocation holds one, reserved at `alloc` and
//! mapped at its first CPU write, so a slot only a NIC places into costs no
//! syscall and no page, a written one costs no memory whatever the
//! allocator's history, and freeing it returns the pages. [`Coroutines`] is
//! the kernel's set of actor contexts: each actor runs on a mapped stack of
//! its own, and [`Coroutines::switch`] moves the calling thread from one
//! stack to another in user space — fifteen instructions where a thread
//! handoff is a futex round trip.
//!
//! The contract the kernel keeps: from the first switch on, a set is driven
//! by one OS thread (the one inside `SimKernel::run`), so a context is always
//! resumed on the thread that suspended it.

use std::ffi::c_void;
use std::ops::DerefMut;
use std::ptr::NonNull;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "simnet runs its actors as coroutines and knows one way to switch stacks: \
     `coro::switch_stacks` (and its boot stub `coro::boot`), written for x86-64 Linux. \
     Port those two routines to build for this target."
);

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;
const PAGE: usize = 4096;

/// What `std::thread` gave each actor when actors were threads.
const STACK_BYTES: usize = 2 << 20;

/// `len` zeroed bytes in a private anonymous mapping of their own, or only
/// reserved: `len` bytes that read as zeros and own no page. Unmapped on drop.
pub(crate) struct Mapping {
    /// `None` while reserved.
    ptr: Option<NonNull<u8>>,
    len: usize,
}

// SAFETY: a `Mapping` owns its pages exclusively, like a `Box<[u8]>`, and
// neither the pages nor `munmap` care which thread uses them.
unsafe impl Send for Mapping {}

impl Mapping {
    /// Reserve `len` zeroed bytes without mapping them: no syscall, no page.
    pub(crate) fn reserved(len: usize) -> Mapping {
        Mapping { ptr: None, len }
    }

    /// Map `len` zeroed bytes. Panics when the OS refuses (address space or
    /// `vm.max_map_count` exhausted), as a failed `malloc` aborts.
    pub(crate) fn zeroed(len: usize) -> Mapping {
        Mapping::map(len, 0)
    }

    /// The length, mapped or reserved.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The bytes, or `None` while reserved (then every one reads as zero).
    pub(crate) fn bytes(&self) -> Option<&[u8]> {
        // SAFETY: a mapped `ptr` heads `len` mapped, readable, initialised
        // (zero-filled by the OS) bytes that live as long as `self`; for
        // `len == 0` it is dangling but aligned, which is what an empty slice
        // asks for.
        self.ptr
            .map(|p| unsafe { std::slice::from_raw_parts(p.as_ptr(), self.len) })
    }

    /// The bytes to write, or `None` while reserved.
    pub(crate) fn bytes_mut(&mut self) -> Option<&mut [u8]> {
        // SAFETY: as in `bytes`; the pages are writable and `&mut self` makes
        // this the only view of them.
        self.ptr
            .map(|p| unsafe { std::slice::from_raw_parts_mut(p.as_ptr(), self.len) })
    }

    /// Where the pages of a mapping `map` made start: a stack's.
    fn base(&self) -> *mut u8 {
        self.ptr.expect("a stack is mapped").as_ptr()
    }

    fn map(len: usize, flags: i32) -> Mapping {
        if len == 0 {
            return Mapping {
                ptr: Some(NonNull::dangling()),
                len,
            };
        }
        // SAFETY: a fresh anonymous mapping at an address the OS picks
        // aliases nothing; the result is checked below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS | flags,
                -1,
                0,
            )
        };
        // MAP_FAILED is `(void *)-1`.
        if ptr as isize == -1 {
            let err = std::io::Error::last_os_error();
            panic!("mmap of {len} bytes failed: {err}");
        }
        let ptr = NonNull::new(ptr.cast()).expect("mmap returned neither MAP_FAILED nor null");
        Mapping {
            ptr: Some(ptr),
            len,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        let Some(ptr) = self.ptr else {
            return;
        };
        if self.len != 0 {
            // SAFETY: exactly the range `map` mapped (the OS rounds both
            // lengths up to whole pages alike), which no reference outlives.
            unsafe { munmap(ptr.as_ptr().cast(), self.len) };
        }
    }
}

/// Save the callee-saved registers and the stack pointer of the running
/// context through `save`, then load `to` — a stack pointer this routine
/// saved earlier, or one [`Stack::boot`] laid out — and return *there*.
///
/// # Safety
/// `save` must be writable, and `to` must be the saved stack pointer of a
/// context that is suspended, whose stack is still mapped, and that was
/// suspended on this OS thread (or never ran). The call returns when some
/// other context switches back to the value stored through `save`.
#[unsafe(naked)]
unsafe extern "C" fn switch_stacks(save: *mut usize, to: usize) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// What the first switch into a fresh stack returns to: calls `r13(r12)`,
/// which never returns. Marks the caller's `rip` undefined so that unwinders
/// and profilers end a coroutine's backtrace here.
///
/// # Safety
/// Not to be called: only `switch_stacks`' `ret` may enter it, on a frame
/// [`Stack::boot`] laid out, which is what sets `r12` and `r13`.
#[unsafe(naked)]
unsafe extern "C" fn boot() {
    std::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call r13",
        "ud2",
        ".cfi_endproc",
    )
}

/// A coroutine's body. It runs on the coroutine's stack and returns — having
/// dropped everything it owns — the context that runs next, which only
/// [`Coroutines::exit_to`] can name.
pub(crate) type Entry = Box<dyn FnOnce() -> ExitTo + Send>;

/// Proof that the running coroutine was retired with [`Coroutines::exit_to`],
/// carrying the stack pointer control goes to when its body returns.
pub(crate) struct ExitTo(usize);

/// The first frame on every coroutine stack. The body must *return* into it
/// before the last switch away: a finished stack is unmapped, never unwound,
/// so anything a frame on it still owned would leak.
///
/// # Safety
/// `entry` must come from `Box::into_raw` and be passed to no other call:
/// [`Stack::boot`] puts one in each boot frame, and `boot` enters this once.
unsafe extern "C" fn first_frame(entry: *mut Entry) -> ! {
    // SAFETY: the caller's contract.
    let entry = unsafe { Box::from_raw(entry) };
    let ExitTo(to) = entry();
    let mut abandoned = 0;
    // SAFETY: `exit_to` took `to` from a suspended context and marked it
    // running, so nothing else resumes it; `abandoned` is a live local.
    // Nobody switches back to this context: the set holds no stack pointer
    // for it any more.
    unsafe { switch_stacks(&mut abandoned, to) };
    unreachable!("a finished coroutine was resumed");
}

/// [`STACK_BYTES`] of stack above one inaccessible guard page.
struct Stack(Mapping);

impl Stack {
    fn new() -> Stack {
        let map = Mapping::map(PAGE + STACK_BYTES, MAP_NORESERVE | MAP_STACK);
        // SAFETY: the lowest page of a mapping nothing points into yet; an
        // overflowing actor now faults instead of writing below its stack.
        let rc = unsafe { mprotect(map.base().cast(), PAGE, PROT_NONE) };
        assert_eq!(rc, 0, "mprotect of a stack guard page failed");
        Stack(map)
    }

    /// Lay out the frame the first `switch_stacks` into this stack pops —
    /// six registers (`r12` = `entry`, `r13` = `first_frame`) and `boot` as
    /// the return address — and return its stack pointer. The `ret` leaves
    /// `rsp` at the 16-byte-aligned top, as the ABI wants at `boot`'s `call`.
    fn boot(&self, entry: Entry) -> usize {
        let entry = Box::into_raw(Box::new(entry));
        let first_frame: unsafe extern "C" fn(*mut Entry) -> ! = first_frame;
        let boot: unsafe extern "C" fn() = boot;
        // r15, r14, r13, r12, rbx, rbp (0 ends frame-pointer walks), return.
        let frame = [
            0,
            0,
            first_frame as usize,
            entry as usize,
            0,
            0,
            boot as usize,
        ];
        let map = &self.0;
        // SAFETY: the top `size_of_val(&frame)` bytes of the mapping are in
        // bounds, writable (only the lowest page is protected), 8-aligned
        // (the top is page-aligned) and referenced by nothing else.
        unsafe {
            let rsp = map.base().add(map.len).cast::<usize>().sub(frame.len());
            rsp.copy_from_nonoverlapping(frame.as_ptr(), frame.len());
            rsp as usize
        }
    }
}

/// One actor's context. Fresh while `entry` is there, suspended while `rsp`
/// is non-zero, otherwise running or finished.
#[derive(Default)]
pub(crate) struct Coroutine {
    entry: Option<Entry>,
    /// Mapped at the first switch in, so an actor that never runs costs none.
    stack: Option<Stack>,
    rsp: usize,
}

/// A kernel's actor contexts, indexed in spawn order, plus the *root*
/// context: the thread that first switched in (`SimKernel::run`).
#[derive(Default)]
pub(crate) struct Coroutines {
    slots: Vec<Coroutine>,
    /// The root's saved stack pointer while a coroutine runs; 0 otherwise.
    root: usize,
    /// Whose stack the driving thread is on; `None` is the root.
    running: Option<usize>,
}

impl Coroutines {
    /// Add a coroutine that will run `entry` when first switched to. Its
    /// index is the number of coroutines spawned before it.
    pub(crate) fn spawn(&mut self, entry: Entry) {
        self.slots.push(Coroutine {
            entry: Some(entry),
            ..Coroutine::default()
        });
    }

    /// Mark `to` (`None`: the root) running and return where to resume it.
    fn resume(&mut self, to: Option<usize>) -> usize {
        let rsp = match to {
            None => std::mem::take(&mut self.root),
            Some(i) => {
                let co = &mut self.slots[i];
                match co.entry.take() {
                    Some(entry) => co.stack.insert(Stack::new()).boot(entry),
                    None => std::mem::take(&mut co.rsp),
                }
            }
        };
        assert!(rsp != 0, "resumed context {to:?}, which is not suspended");
        self.running = to;
        rsp
    }

    /// Suspend the running context and resume `to` (`None`: the root);
    /// returns when something switches back. `guard` is the lock `set` lives
    /// behind: it is released before the stacks change, because the resumed
    /// context is on this same thread and locks it next.
    pub(crate) fn switch<G: DerefMut>(
        mut guard: G,
        set: impl FnOnce(&mut G::Target) -> &mut Coroutines,
        to: Option<usize>,
    ) {
        let this = set(&mut guard);
        let from = this.running;
        assert_ne!(from, to, "switched to the running context");
        let to = this.resume(to);
        let save: *mut usize = match from {
            None => &mut this.root,
            Some(i) => &mut this.slots[i].rsp,
        };
        drop(guard);
        // SAFETY: `resume` took `to` from a context that was suspended (or
        // booted it on a fresh stack) and marked it running, so it is resumed
        // once; stacks are unmapped only by `remove`, which refuses live
        // contexts. `save` points into the set, which outlives this call (the
        // caller's own context is in it or is its root) and which, with the
        // one driving thread busy here, nobody resizes before the routine's
        // store. Resuming on the suspending thread is the module contract.
        unsafe { switch_stacks(save, to) };
    }

    /// Retire the running coroutine — its body must return the result at
    /// once — and hand the thread to `to` (`None`: the root).
    pub(crate) fn exit_to(&mut self, to: Option<usize>) -> ExitTo {
        assert!(
            self.running.is_some() && self.running != to,
            "exit from the root context, or to the exiting one"
        );
        ExitTo(self.resume(to))
    }

    /// Take coroutine `i` out of the set; dropping the result drops a body
    /// that never ran and unmaps the stack. Refuses a context that is
    /// suspended or running, whose frames still own things.
    pub(crate) fn remove(&mut self, i: usize) -> Coroutine {
        assert!(
            self.slots[i].rsp == 0 && self.running != Some(i),
            "removed coroutine {i} while it is live"
        );
        std::mem::take(&mut self.slots[i])
    }
}

//! A memory-backed directory inside the checkout, so that spill files and
//! the WAL measure the program's encoding, checksums and system calls and
//! not the sandbox's virtual disk: on the checkout's ext4 the fastest
//! `out_of_core` pass of eight alternating runs lay between 295 and 388 ms,
//! on a tmpfs between 274 and 296 ms (README, "Run shape").
//!
//! The tmpfs is mounted in a mount namespace of this process alone: no
//! other process sees it, and it is gone when this process ends, however
//! it ends.

use std::ffi::CString;
use std::io;
use std::os::raw::{c_char, c_int, c_ulong, c_void};
use std::os::unix::ffi::OsStrExt;
use std::path::Path;
use std::ptr;

extern "C" {
    fn unshare(flags: c_int) -> c_int;
    fn mount(
        source: *const c_char,
        target: *const c_char,
        fstype: *const c_char,
        flags: c_ulong,
        data: *const c_void,
    ) -> c_int;
}

// From <sched.h> and <sys/mount.h>.
const CLONE_NEWNS: c_int = 0x0002_0000;
const MS_REC: c_ulong = 1 << 14;
const MS_PRIVATE: c_ulong = 1 << 18;

/// Mount a tmpfs over the existing directory `dir`, visible to this process
/// only. Call before any thread is spawned: a namespace is per thread, and
/// only threads started afterwards inherit it. Fails without the privilege
/// to mount; the caller then keeps the plain directory.
pub fn mount_private(dir: &Path) -> io::Result<()> {
    let target = CString::new(dir.as_os_str().as_bytes())?;
    let check = |status: c_int| match status {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    };
    // SAFETY: `unshare` takes no pointer. Every pointer handed to `mount`
    // is either null, which mount(2) allows for the arguments a remount of
    // the propagation type and a tmpfs ignore, or a NUL-terminated string
    // that outlives the call.
    unsafe {
        check(unshare(CLONE_NEWNS))?;
        // Keep the new mount out of the namespace this one was copied from.
        check(mount(
            ptr::null(),
            c"/".as_ptr(),
            ptr::null(),
            MS_REC | MS_PRIVATE,
            ptr::null(),
        ))?;
        check(mount(
            c"tmpfs".as_ptr(),
            target.as_ptr(),
            c"tmpfs".as_ptr(),
            0,
            c"size=512m".as_ptr().cast(),
        ))
    }
}

/// The event-driven connection engine maps raw `epoll`/`pipe2` syscalls
/// directly against libc (see `src/poll.rs`). Emit `cgte_epoll` only where
/// those declarations are known-correct: Linux on the 64-bit architectures
/// whose `O_*` flag values match the ones vendored in `poll.rs`. Everywhere
/// else the crate still compiles, but `Server::bind` fails with
/// `ErrorKind::Unsupported`: serving is Linux-only.
fn main() {
    println!("cargo:rustc-check-cfg=cfg(cgte_epoll)");
    let os = std::env::var("CARGO_CFG_TARGET_OS").unwrap_or_default();
    let arch = std::env::var("CARGO_CFG_TARGET_ARCH").unwrap_or_default();
    let linux = os == "linux" || os == "android";
    let known_arch = matches!(arch.as_str(), "x86_64" | "aarch64" | "riscv64");
    if linux && known_arch {
        println!("cargo:rustc-cfg=cgte_epoll");
    }
}

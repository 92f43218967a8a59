#![forbid(unsafe_code)]

pub use miller_core::*;

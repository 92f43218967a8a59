#![forbid(unsafe_code)]

//! Estimating the wire size of messages.
//!
//! The real GRAPE prototype ships update parameters over MPI; the
//! communication volumes it reports are serialized bytes. Our in-process
//! simulation never serializes, so [`MessageSize`] provides a deterministic
//! estimate of what the serialized size would be. The estimates use the
//! natural fixed-width encoding (8 bytes for ids/doubles/integers, length +
//! payload for strings and vectors), which is what a compact MPI encoding of
//! the same data would occupy.

/// Estimated serialized size of a message, in bytes.
pub trait MessageSize {
    /// Number of bytes this value would occupy on the wire.
    fn size_bytes(&self) -> usize;
}

macro_rules! fixed_size {
    ($($t:ty => $n:expr),* $(,)?) => {
        $(impl MessageSize for $t {
            fn size_bytes(&self) -> usize { $n }
        })*
    };
}

fixed_size!(
    u8 => 1,
    u16 => 2,
    u32 => 4,
    u64 => 8,
    usize => 8,
    i8 => 1,
    i16 => 2,
    i32 => 4,
    i64 => 8,
    isize => 8,
    f32 => 4,
    f64 => 8,
    bool => 1,
    () => 0,
);

impl MessageSize for String {
    fn size_bytes(&self) -> usize {
        4 + self.len()
    }
}

impl MessageSize for &str {
    fn size_bytes(&self) -> usize {
        4 + self.len()
    }
}

impl<T: MessageSize> MessageSize for Option<T> {
    fn size_bytes(&self) -> usize {
        1 + self.as_ref().map(|v| v.size_bytes()).unwrap_or(0)
    }
}

impl<T: MessageSize> MessageSize for Vec<T> {
    fn size_bytes(&self) -> usize {
        4 + self.iter().map(MessageSize::size_bytes).sum::<usize>()
    }
}

impl<T: MessageSize> MessageSize for Box<T> {
    fn size_bytes(&self) -> usize {
        self.as_ref().size_bytes()
    }
}

impl<A: MessageSize, B: MessageSize> MessageSize for (A, B) {
    fn size_bytes(&self) -> usize {
        self.0.size_bytes() + self.1.size_bytes()
    }
}

impl<A: MessageSize, B: MessageSize, C: MessageSize> MessageSize for (A, B, C) {
    fn size_bytes(&self) -> usize {
        self.0.size_bytes() + self.1.size_bytes() + self.2.size_bytes()
    }
}

impl<A: MessageSize, B: MessageSize, C: MessageSize, D: MessageSize> MessageSize for (A, B, C, D) {
    fn size_bytes(&self) -> usize {
        self.0.size_bytes() + self.1.size_bytes() + self.2.size_bytes() + self.3.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(1u8.size_bytes(), 1);
        assert_eq!(1u64.size_bytes(), 8);
        assert_eq!(1.5f64.size_bytes(), 8);
        assert_eq!(true.size_bytes(), 1);
        assert_eq!(().size_bytes(), 0);
    }

    #[test]
    fn composite_sizes() {
        assert_eq!((1u64, 2.0f64).size_bytes(), 16);
        assert_eq!((1u64, 2.0f64, 3u32).size_bytes(), 20);
        let v: Vec<(u64, f64)> = vec![(1, 1.0), (2, 2.0)];
        assert_eq!(v.size_bytes(), 4 + 2 * 16);
        assert_eq!(Some(7u64).size_bytes(), 9);
        assert_eq!(Option::<u64>::None.size_bytes(), 1);
    }

    #[test]
    fn string_and_bytes_sizes() {
        assert_eq!("abc".size_bytes(), 7);
        assert_eq!(String::from("abcd").size_bytes(), 8);
        assert_eq!(Box::new(3u64).size_bytes(), 8);
    }

    #[test]
    fn empty_vec_has_header_only() {
        let v: Vec<u64> = vec![];
        assert_eq!(v.size_bytes(), 4);
    }
}

//! Parameter value types (Table 4.1 of the dissertation).

/// A self-updating parameter that iterates through a range with a stride
/// (GPU-PF's "Step" type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepParam {
    pub current: i64,
    pub start: i64,
    pub stride: i64,
    /// Exclusive upper bound; the step wraps back to `start` at the end.
    pub end: i64,
}

impl StepParam {
    pub fn advance(&mut self) {
        let next = self.current + self.stride;
        self.current =
            if (self.stride > 0 && next >= self.end) || (self.stride < 0 && next <= self.end) {
                self.start
            } else {
                next
            };
    }
}

/// The value carried by a pipeline parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Geometry (up to three dimensions) and element size of a memory
    /// reference ("Memory Extent").
    Extent {
        dims: [u32; 3],
        elem_bytes: u32,
    },
    /// Subrange of a memory extent with a per-iteration stride
    /// ("Memory Subset"): `offset`/`len`/`stride` in elements.
    Subset {
        offset: u64,
        len: u64,
        stride: i64,
        reset_period: u64,
    },
    /// Period between events and delay before the first occurrence.
    Schedule {
        period: u64,
        delay: u64,
    },
    Int(i64),
    Float(f64),
    Ptr(u64),
    /// Three integers — commonly grid/block dimensions.
    Triplet([u32; 3]),
    Bool(bool),
    /// Self-updating range iterator.
    Step(StepParam),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_wraps_at_end() {
        let mut s = StepParam {
            current: 0,
            start: 0,
            stride: 3,
            end: 9,
        };
        let mut seen = vec![s.current];
        for _ in 0..5 {
            s.advance();
            seen.push(s.current);
        }
        assert_eq!(seen, vec![0, 3, 6, 0, 3, 6]);
    }

    #[test]
    fn negative_stride_step() {
        let mut s = StepParam {
            current: 10,
            start: 10,
            stride: -5,
            end: 0,
        };
        s.advance();
        assert_eq!(s.current, 5);
        s.advance();
        assert_eq!(s.current, 10, "wraps when reaching end");
    }
}

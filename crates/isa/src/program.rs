//! Assembled program images.

use crate::inst::Inst;
use crate::mem::Memory;
use std::collections::HashMap;

/// A block of initialised data placed in memory before execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataSegment {
    /// Base address of the segment.
    pub base: u64,
    /// Raw little-endian bytes.
    pub bytes: Vec<u8>,
}

/// An assembled TH64 program: a text segment, initialised data segments, and
/// the label map produced by the assembler.
///
/// Programs are the unit of work handed to both the functional interpreter
/// ([`crate::Machine`]) and the cycle-level simulator in `th-sim`.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Address of the first instruction.
    pub entry: u64,
    /// Instructions, contiguous from [`Program::entry`].
    pub text: Vec<Inst>,
    /// Initialised data segments.
    pub data: Vec<DataSegment>,
    /// Label name → address (text labels and data labels).
    pub labels: HashMap<String, u64>,
}

impl Program {
    /// Fetches the instruction at `pc`, or `None` if `pc` is outside the
    /// text segment or misaligned.
    pub fn fetch(&self, pc: u64) -> Option<&Inst> {
        fetch_at(self.entry, &self.text, pc)
    }

    /// Address one past the last instruction.
    pub fn text_end(&self) -> u64 {
        self.entry + self.text.len() as u64 * Inst::SIZE
    }

    /// Looks up a label address.
    pub fn label(&self, name: &str) -> Option<u64> {
        self.labels.get(name).copied()
    }

    /// Builds a fresh memory image with all data segments (and the encoded
    /// text, so indirect reads of code behave sensibly) loaded.
    pub fn build_memory(&self) -> Memory {
        let mut mem = Memory::new();
        for (i, inst) in self.text.iter().enumerate() {
            mem.write_u64(self.entry + i as u64 * Inst::SIZE, crate::encode(inst));
        }
        for seg in &self.data {
            mem.write_slice(seg.base, &seg.bytes);
        }
        mem
    }

    /// Static instruction count.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the text segment is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }
}

/// Fetches the instruction at `pc` from a text segment that starts at
/// `entry`; shared by [`Program::fetch`] and the functional machine, which
/// keeps only the text of the program it was built from.
pub(crate) fn fetch_at(entry: u64, text: &[Inst], pc: u64) -> Option<&Inst> {
    if pc < entry || !(pc - entry).is_multiple_of(Inst::SIZE) {
        return None;
    }
    text.get(((pc - entry) / Inst::SIZE) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Inst, Op};
    use crate::reg::Reg;

    fn sample() -> Program {
        Program {
            entry: 0x1000,
            text: vec![
                Inst::rri(Op::Addi, Reg::X1, Reg::X0, 1),
                Inst::rri(Op::Addi, Reg::X2, Reg::X0, 2),
                Inst::halt(),
            ],
            data: vec![DataSegment { base: 0x8000, bytes: vec![9, 8, 7] }],
            labels: [("start".to_string(), 0x1000u64)].into_iter().collect(),
        }
    }

    #[test]
    fn fetch_in_range() {
        let p = sample();
        assert_eq!(p.fetch(0x1000).unwrap().op, Op::Addi);
        assert_eq!(p.fetch(0x1010).unwrap().op, Op::Halt);
        assert!(p.fetch(0x0ff8).is_none());
        assert!(p.fetch(0x1018).is_none());
        assert!(p.fetch(0x1004).is_none(), "misaligned fetch must fail");
        assert_eq!(p.text_end(), 0x1018);
    }

    #[test]
    fn memory_image_contains_text_and_data() {
        let p = sample();
        let mem = p.build_memory();
        assert_eq!(crate::decode(mem.read_u64(0x1000)).unwrap(), p.text[0]);
        assert_eq!(mem.read_u8(0x8000), 9);
        assert_eq!(mem.read_u8(0x8002), 7);
    }

    #[test]
    fn label_lookup() {
        let p = sample();
        assert_eq!(p.label("start"), Some(0x1000));
        assert_eq!(p.label("missing"), None);
    }
}

//! DRAM command vocabulary shared by the controller and the device model.

use std::fmt;

/// Identifies a bank within a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BankId(pub u32);

impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bank{}", self.0)
    }
}

/// Identifies a channel within the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelId(pub u32);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// The kind of a DRAM command, with its command-specific operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Open (`RAS`) a row: move it from the array into the row buffer.
    Activate {
        /// Row to open.
        row: u32,
    },
    /// Close the open row, writing the row buffer back to the array.
    Precharge,
    /// Column read of one cache-line burst from the open row.
    Read {
        /// Row expected to be open (used for auditing; the device knows it).
        row: u32,
        /// Line-sized column index within the row.
        col: u32,
    },
    /// Column write of one cache-line burst into the open row.
    Write {
        /// Row expected to be open.
        row: u32,
        /// Line-sized column index within the row.
        col: u32,
    },
}

impl CommandKind {
    /// True for column (CAS) commands — the "ready column accesses" that
    /// FR-FCFS prioritizes over row accesses.
    #[inline]
    pub fn is_column(&self) -> bool {
        matches!(self, CommandKind::Read { .. } | CommandKind::Write { .. })
    }
}

/// A fully-addressed DRAM command: what to do, and on which bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramCommand {
    /// Target bank within the channel.
    pub bank: BankId,
    /// Command kind and operands.
    pub kind: CommandKind,
}

impl DramCommand {
    /// Creates an activate command for `row` of `bank`.
    pub fn activate(bank: BankId, row: u32) -> Self {
        DramCommand {
            bank,
            kind: CommandKind::Activate { row },
        }
    }

    /// Creates a precharge command for `bank`.
    pub fn precharge(bank: BankId) -> Self {
        DramCommand {
            bank,
            kind: CommandKind::Precharge,
        }
    }

    /// Creates a column read of (`row`, `col`) in `bank`.
    pub fn read(bank: BankId, row: u32, col: u32) -> Self {
        DramCommand {
            bank,
            kind: CommandKind::Read { row, col },
        }
    }

    /// Creates a column write of (`row`, `col`) in `bank`.
    pub fn write(bank: BankId, row: u32, col: u32) -> Self {
        DramCommand {
            bank,
            kind: CommandKind::Write { row, col },
        }
    }

    /// True for column (CAS) commands.
    #[inline]
    pub fn is_column(&self) -> bool {
        self.kind.is_column()
    }
}

impl fmt::Display for DramCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            CommandKind::Activate { row } => write!(f, "ACT  {} row{row}", self.bank),
            CommandKind::Precharge => write!(f, "PRE  {}", self.bank),
            CommandKind::Read { row, col } => {
                write!(f, "READ {} row{row} col{col}", self.bank)
            }
            CommandKind::Write { row, col } => {
                write!(f, "WRIT {} row{row} col{col}", self.bank)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_row_classification() {
        assert!(DramCommand::read(BankId(0), 1, 2).is_column());
        assert!(DramCommand::write(BankId(0), 1, 2).is_column());
        assert!(!DramCommand::activate(BankId(0), 1).is_column());
        assert!(!DramCommand::precharge(BankId(0)).is_column());
    }

    #[test]
    fn display_is_nonempty_and_informative() {
        let s = DramCommand::read(BankId(3), 17, 5).to_string();
        assert!(s.contains("bank3") && s.contains("row17") && s.contains("col5"));
    }
}

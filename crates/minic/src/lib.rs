//! mini-C: a small C-like language compiled to the x86-64 subset.
//!
//! The RedFat paper evaluates on SPEC CPU2006 and Chrome -- megabytes of
//! compiled C/C++/Fortran. This crate is the reproduction's compiler
//! substrate: it turns C-like source into real machine code in ELF
//! images, so the workloads exercising the hardening pipeline are
//! *compiled programs* with the memory-access idioms the paper cares
//! about, not hand-crafted snippets:
//!
//! * heap arrays accessed through `disp(base,index,scale)` operands
//!   (including constant-offset forms that give check *merging* real
//!   material);
//! * locals and spill temporaries addressed off `%rsp`, which check
//!   *elimination* removes -- the same reason most stack traffic is free
//!   in the paper;
//! * pointer arithmetic, including the `array - K` anti-idiom and
//!   Fortran-style non-zero array bases that produce intentional
//!   out-of-bounds base pointers (the §5 false-positive generators);
//! * function calls, loops, branches, byte-granular access (`load8`/
//!   `store8`), globals, and runtime calls (`malloc`/`free`/IO) through
//!   `syscall` stubs.
//!
//! # Language
//!
//! ```text
//! global seed;            // global scalar
//! global table[64];       // global array (8-byte elements)
//!
//! fn add(x, y) { return x + y; }
//!
//! fn main() {
//!     var a = malloc(10 * 8);
//!     for (var i = 0; i < 10; i = i + 1) { a[i] = add(i, i); }
//!     print(a[9]);
//!     free(a);
//!     return 0;
//! }
//! ```
//!
//! All values are 64-bit integers; pointers are byte addresses; `a[i]`
//! scales by 8; `load8`/`store8` access single bytes. Functions take up
//! to six parameters. `input()` reads the next integer from the guest
//! input queue (returns -1 at EOF); `print(v)`/`putc(c)` write to the
//! guest output streams.
//!
//! # Examples
//!
//! ```
//! use redfat_minic::compile;
//!
//! let image = compile("fn main() { print(6 * 7); return 0; }").unwrap();
//! assert!(image.exec_segments().count() > 0);
//! ```

mod ast;
mod codegen;
mod lexer;
mod parser;

pub use ast::{BinOp, Expr, Function, Global, Program, Stmt, UnOp};
pub use codegen::{CodegenError, CodegenOptions};
pub use lexer::{LexError, Token};
pub use parser::ParseError;

use redfat_elf::Image;

/// A compilation failure.
#[derive(Debug)]
pub enum CompileError {
    /// Lexical error.
    Lex(LexError),
    /// Syntax error.
    Parse(ParseError),
    /// Code generation error.
    Codegen(CodegenError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Lex(e) => write!(f, "lex error: {e}"),
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Codegen(e) => write!(f, "codegen error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiles mini-C source into an ELF image ready for the emulator (and
/// for the RedFat hardening pipeline).
pub fn compile(source: &str) -> Result<Image, CompileError> {
    let tokens = lexer::lex(source).map_err(CompileError::Lex)?;
    let program = parser::parse(&tokens).map_err(CompileError::Parse)?;
    codegen::generate(&program).map_err(CompileError::Codegen)
}

/// Compiles a mini-C *library*: no `main`, no startup stub, text and
/// globals at caller-chosen bases. Its exported functions are reached
/// from other images through the `callptr` intrinsic, using addresses
/// from the returned image's symbol table -- the reproduction's analogue
/// of a shared object (paper §7.4).
pub fn compile_library(
    source: &str,
    code_base: u64,
    globals_base: u64,
) -> Result<Image, CompileError> {
    let tokens = lexer::lex(source).map_err(CompileError::Lex)?;
    let program = parser::parse_library(&tokens).map_err(CompileError::Parse)?;
    codegen::generate_with(
        &program,
        CodegenOptions {
            code_base,
            globals_base,
            entry_stub: false,
        },
    )
    .map_err(CompileError::Codegen)
}

(** A HeapLang-style language: untyped lambda calculus with a mutable
    higher-order heap and a small-step semantics. *)

module Ast = Ast
module Subst = Subst
module Heap = Heap
module Step = Step
module Lexer = Lexer
module Surface = Surface
module Parser = Parser

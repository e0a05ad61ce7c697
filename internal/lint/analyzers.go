package lint

// All returns every analyzer in the suite, in the fixed order used by
// cmd/teclint. The order only affects tie-breaking of diagnostics at
// identical positions; Run sorts findings by position and rule name.
func All() []*Analyzer {
	return []*Analyzer{
		ChanFlow,
		CtxFlow,
		DimFlow,
		DroppedErr,
		ErrPath,
		FloatEq,
		GoroLeak,
		LockBalance,
		LockCopy,
		MapOrder,
		MutexBlock,
		NaNFlow,
		ObsClock,
		OnceMisuse,
		SpawnCtx,
		TestHelper,
		TypedErr,
		UnitSanity,
		ValidateFirst,
		WGBalance,
	}
}

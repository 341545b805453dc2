package analysis

// All returns the repo's analyzers in the order matchlint runs them.
func All() []*Analyzer {
	return []*Analyzer{
		MapRange,
		RNGDiscipline,
		MeteredSweep,
		NoClock,
		PowHot,
		FieldHot,
		ErrWrapBudget,
		DeadExport,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

package mpbasset

// RuleMessages returns the option-compatibility table's messages in table
// order, so the external tests can assert that every row has a violating
// input and that rejections come from the table.
func RuleMessages() []string {
	msgs := make([]string, len(rules))
	for i, r := range rules {
		msgs[i] = r.msg
	}
	return msgs
}

// EngineNames returns the engines table's names in table order, so the
// external tests can check README's engine matrix against it.
func EngineNames() []string {
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.name
	}
	return names
}

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

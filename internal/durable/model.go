package durable

// ModelAt is the store's reference model: it replays the first seq batches
// of history (batch i carries sequence number i+1) into a fresh map — the
// state an honest store must hold after acknowledging record seq. It is a
// switch of its own over the Op kinds, independent of the replay code it
// checks, so a bug there cannot hide behind the oracle.
func ModelAt(history [][]Op, seq uint64) map[string][]byte {
	state := make(map[string][]byte)
	for i := uint64(0); i < seq && i < uint64(len(history)); i++ {
		for _, op := range history[i] {
			switch op.Kind {
			case OpPut:
				state[op.Key] = op.Value
			case OpDelete:
				delete(state, op.Key)
			case OpClear:
				state = make(map[string][]byte)
			}
		}
	}
	return state
}

// StateEqual reports whether the store holds exactly want: the same keys,
// each with the same value.
func StateEqual(st *Store, want map[string][]byte) bool {
	if st.Len() != len(want) {
		return false
	}
	for k, v := range want {
		got, ok := st.Get(k)
		if !ok || string(got) != string(v) {
			return false
		}
	}
	return true
}

package fastcolumns

import (
	"fmt"

	"fastcolumns/internal/exec"
	"fastcolumns/internal/persist"
)

// Save persists the table's read store into dir (one checksummed column
// file per attribute plus a manifest). Pending delta appends are NOT
// saved; call Merge first if they should survive.
func (t *Table) Save(dir string) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return persist.SaveTable(dir, t.st)
}

// LoadTable restores a table persisted with Save and registers it under
// its saved name. Access structures and statistics (indexes, bitmaps,
// zonemaps, imprints, compressed twins, histograms) are not persisted;
// rebuild the ones you need with CreateIndex / CreateBitmapIndex /
// BuildZonemap / BuildImprints / Compress, and Analyze an attribute that
// has neither kind of index.
func (e *Engine) LoadTable(dir string) (*Table, error) {
	st, err := persist.LoadTable(dir)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.tables[st.Name()]; ok {
		return nil, fmt.Errorf("fastcolumns: table %q already exists", st.Name())
	}
	t := &Table{
		engine: e,
		st:     st,
		rels:   make(map[string]*exec.Relation),
	}
	for _, name := range st.ColumnNames() {
		if err := t.buildRelation(name); err != nil {
			return nil, err
		}
	}
	e.tables[st.Name()] = t
	return t, nil
}

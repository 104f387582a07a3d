package textual

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Vocabulary persistence. The format is CSV: a header record carrying the
// document count, then one record per term in TermID order (so reloading
// restores the exact term -> ID mapping the index was built with —
// envelope term IDs stored in tree nodes stay valid).
//
//	docs,<count>
//	<term>,<df>
//	...

// Save writes the vocabulary (terms in ID order plus corpus statistics).
// A term holding a carriage return is an error: a CSV reader turns a
// quoted "\r\n" into "\n", so the term would not load back as written.
func (v *Vocabulary) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"docs", strconv.Itoa(v.docs)}); err != nil {
		return err
	}
	for id, term := range v.terms {
		if strings.ContainsRune(term, '\r') {
			return fmt.Errorf("textual: term %q holds a carriage return, which CSV does not preserve", term)
		}
		if err := cw.Write([]string{term, strconv.Itoa(v.df[id])}); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadVocabulary reads a vocabulary written by Save, restoring term IDs,
// document frequencies, and the document count.
func LoadVocabulary(r io.Reader) (*Vocabulary, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("textual: reading vocabulary header: %w", err)
	}
	if head[0] != "docs" {
		return nil, fmt.Errorf("textual: bad vocabulary header %q", head[0])
	}
	docs, err := strconv.Atoi(head[1])
	if err != nil {
		return nil, fmt.Errorf("textual: bad document count %q: %w", head[1], err)
	}
	v := NewVocabulary()
	v.docs = docs
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		df, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("textual: bad df %q for term %q: %w", rec[1], rec[0], err)
		}
		if strings.ContainsRune(rec[0], '\r') {
			return nil, fmt.Errorf("textual: term %q holds a carriage return", rec[0])
		}
		if _, exists := v.ids[rec[0]]; exists {
			return nil, fmt.Errorf("textual: duplicate term %q in vocabulary", rec[0])
		}
		id := v.ID(rec[0])
		v.df[id] = df
	}
	return v, nil
}

package segment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ManifestName is the file naming the live segment set inside a store
// directory.
const ManifestName = "MANIFEST.json"

const manifestVersion = 1

// ManifestSegment is one live segment as recorded in the manifest.
type ManifestSegment struct {
	File    string `json:"file"`
	Records int64  `json:"records"`
}

// Manifest is the durable description of a store: which segment files are
// live, in global-ID order, and the store's fixed shape parameters. It is
// swapped atomically (temp file + rename) so a crash leaves either the old
// or the new set visible, never a mix.
type Manifest struct {
	Version    int               `json:"version"`
	Generation int64             `json:"generation"`
	SeriesLen  int               `json:"series_len"`
	Dims       int               `json:"dims"`
	Segments   []ManifestSegment `json:"segments"`
}

// LoadManifest reads dir's manifest. A missing manifest is not an error: it
// returns an empty Manifest and ok=false (the empty-store, ingest-first
// case).
func LoadManifest(dir string) (Manifest, bool, error) {
	var m Manifest
	buf, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return m, false, nil
	}
	if err != nil {
		return m, false, fmt.Errorf("segment: %w", err)
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		// A partial or truncated manifest means a crash interrupted a swap
		// (the rename is atomic, so this should not happen under this
		// writer) or the file was edited. Name the recovery path instead of
		// surfacing a raw decode error.
		return m, false, fmt.Errorf("segment: %s is corrupt or truncated (%d bytes: %v); "+
			"restore it from a backup or re-ingest the store — segment files themselves are immutable and may be intact",
			ManifestName, len(buf), err)
	}
	if m.Version != manifestVersion {
		return m, false, fmt.Errorf("segment: %s: unsupported version %d", ManifestName, m.Version)
	}
	seen := make(map[string]bool, len(m.Segments))
	for _, s := range m.Segments {
		if s.File != filepath.Base(s.File) || !strings.HasSuffix(s.File, segSuffix) {
			return m, false, fmt.Errorf("segment: %s: bad segment file name %q", ManifestName, s.File)
		}
		if seen[s.File] {
			return m, false, fmt.Errorf("segment: %s: segment file %q is listed twice", ManifestName, s.File)
		}
		seen[s.File] = true
	}
	return m, true, nil
}

// WriteManifest atomically replaces dir's manifest.
func WriteManifest(dir string, m Manifest) error {
	m.Version = manifestVersion
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	buf = append(buf, '\n')
	f, err := os.CreateTemp(dir, ".lbseg-manifest-*")
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("segment: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: %w", err)
	}
	return syncDir(dir)
}

const segSuffix = ".lbseg"

// segFileName names segment number seq inside a store directory.
func segFileName(seq int64) string {
	return fmt.Sprintf("seg-%06d%s", seq, segSuffix)
}

// segSeq parses the sequence number out of a segment file name, returning -1
// when the name does not match the seg-NNNNNN.lbseg convention.
func segSeq(name string) int64 {
	var seq int64
	if _, err := fmt.Sscanf(name, "seg-%d.lbseg", &seq); err != nil {
		return -1
	}
	return seq
}

// scanSegments reads dir's segment files against its manifest m. Orphans are
// the .lbseg files m does not name — debris from a crash between a segment's
// rename and the manifest swap, or from foreign tooling — sorted by name;
// they are never served, since the manifest is the sole source of truth.
// next is the first segment number past every seg-N.lbseg in m or in dir,
// orphans included, so a new segment never renames over one of them.
func scanSegments(dir string, m Manifest) (next int64, orphans []string) {
	known := make(map[string]bool, len(m.Segments))
	for _, ms := range m.Segments {
		known[ms.File] = true
		next = max(next, segSeq(ms.File)+1)
	}
	ents, _ := os.ReadDir(dir) // sorted by name
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, segSuffix) && !known[name] {
			orphans = append(orphans, name)
			next = max(next, segSeq(name)+1)
		}
	}
	return next, orphans
}

// cleanTemp removes leftover spill/assembly temp files from a crashed writer.
// Live segments and the manifest are never dot-prefixed, so this touches only
// debris.
func cleanTemp(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".lbseg-") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
